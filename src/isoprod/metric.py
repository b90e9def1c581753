"""Finite metric spaces, metric products and their decompositions.

The matrices here are plain nested sequences so a candidate can be fed
to :func:`verify_metric` before anyone promises it is a metric.  A
product matrix holds a few distinct values, so it can also travel coded
(``values=``): a list of values and rows of int indices into it, each
value checked, scaled and written once.  All checks are exact on
rational entries and an exact tolerance (the ``verify-metric --tol``
option); only float entries or a float tolerance, which the inexact
Euclidean-style combiner needs, are compared in floating point.

A :class:`FiniteMetricSpace` ranks its entries in its sorted distance set
once, when it is built; products, and the scans that take them apart, read
those ranks as each pair's grid index in ``itertools.product(*distance sets)``,
and a product is proved a metric on its factors' distance triples (:func:`product_metric_proved`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import eq
from typing import Optional, Sequence, Union

from .combiners import Combiner
from .errors import CombinerDomainGapError, InvalidMetricError, IsoprodError, NotWellDefinedError, OutOfRangeError
from .points import PointN, Record, first_inversion, isotone_by_unit_steps, rat, scale_to_integers
from .sampled import SampledFunction, is_amenable, is_subadditive, require_isotone


class MetricViolation(Record):
    """One failed metric axiom: kind is symmetry, identity or triangle."""

    kind: str
    indices: tuple[int, ...]
    detail: str


def verify_metric(matrix, tol=0, *, values=None, squares=None) -> tuple[bool, Optional[MetricViolation]]:
    """Check the metric axioms on a square nonnegative matrix.

    Returns the first violation in axiom order (symmetry, identity of indiscernibles, triangle), each
    scanned in lexicographic index order and relaxed by tol (0: exact).

    With values, entry (i, j) is values[matrix[i][j]], coded by rank, by distinct string or by grid
    index; without, the matrix is its own value list.  Exact values and tol are scaled to integers
    together, and the triangles (i, j, .) of a row pair are asked at once on rows packed into ints
    (:func:`_packed_triangle_failures`); only the first failing pair is scanned over k for its witness.
    Float entries or a float tol scan every pair over k.  After the square and negative-entry checks, a
    nan or negative tol and a nan or infinite entry raise ValueError.  ``product --verify`` runs it only
    where :func:`product_metric_proved` proves nothing.

    Given squares, the exact squares of the values under the same codes (a SQRT_SUM_SQ product's
    SQUARE_SUM table), the verdict is decided on them with tol = 0 and values only print the witness:
    symmetry and identity hold on the roots exactly when they hold on the squares, and sqrt(a) <=
    sqrt(b) + sqrt(c) exactly when a - b - c <= 0 or (a - b - c) ** 2 <= 4bc.  A failing root triangle
    fails a <= b + c, so the packed test on the squares flags every row pair to scan over k.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if values is None:
        values, matrix = list(itertools.chain.from_iterable(matrix)), [range(i * n, i * n + n) for i in range(n)]
    if tol == 0:
        tol = 0  # a float zero is still the exact check
    ints, bound = values, tol
    exact = isinstance(tol, (Fraction, int)) and all(isinstance(v, (Fraction, int)) for v in values)
    if exact:
        _, (bound, *ints) = scale_to_integers([tol, *values])
    if squares is not None:
        exact, (_, ints), bound = True, scale_to_integers(squares), 0
    m = [list(map(ints.__getitem__, row)) for row in matrix]

    def d(i, j):  # an entry as given, for the witness texts
        return values[matrix[i][j]]

    if any(v < 0 for v in ints):
        for i, row in enumerate(m):
            if any(v < 0 for v in row):
                raise ValueError(f"negative entry at ({i}, {[v < 0 for v in row].index(True)})")
    if not tol >= 0:
        raise ValueError(f"the tolerance must be a nonnegative number, got {tol}")
    if not (exact or all(-math.inf < v < math.inf for v in values)):  # exact values are finite
        i, j = next((i, j) for i in range(n) for j in range(n) if not -math.inf < d(i, j) < math.inf)
        raise ValueError(f"entry at ({i}, {j}) is not a finite number: {d(i, j)}")
    if not all(map(eq, m, map(list, zip(*m)))):  # a symmetric matrix differs by 0 only
        for i in range(n):
            for j in range(i + 1, n):
                if abs(m[i][j] - m[j][i]) > bound:
                    return False, MetricViolation("symmetry", (i, j), f"d({i},{j})={d(i, j)} != d({j},{i})={d(j, i)}")
    for i in range(n):
        if m[i][i] > bound:
            return False, MetricViolation("identity", (i, i), f"d({i},{i})={d(i, i)} != 0")
    vanishing = {v for v in ints if v <= bound}
    for i, row in enumerate(m):
        if sum(map(row.count, vanishing)) > (row[i] <= bound):  # an entry off the diagonal vanishes
            j = next(j for j, v in enumerate(row) if j != i and v <= bound)
            return False, MetricViolation("identity", (i, j), f"d({i},{j})={d(i, j)} vanishes off the diagonal")

    pairs = _packed_triangle_failures(m, bound) if exact else itertools.product(range(n), repeat=2)
    for i, j in pairs:
        row_i, row_j, dij = m[i], m[j], m[i][j]
        for k in range(n):
            if row_i[k] > dij + row_j[k] + bound and (
                    squares is None or (row_i[k] - dij - row_j[k]) ** 2 > 4 * dij * row_j[k]):
                return False, MetricViolation(
                    "triangle",
                    (i, j, k),
                    f"d({i},{k})={d(i, k)} > d({i},{j})+d({j},{k})={d(i, j)}+{d(j, k)}",
                )
        if exact and squares is None:
            raise AssertionError(f"packed triangle test failed row pair ({i}, {j}) without a witness")
    return True, None


def _packed_triangle_failures(m: list[list[int]], bound: int):
    """The row pairs (i, j), in i-major order, where some triangle (i, j, k) fails.

    m is a square nonnegative integer matrix and bound >= 0.
    Row i is packed into one int with a w-bit field per column k, least
    significant first.  Field k of lifted[j] + m[i][j] * ones - packed[i]
    is s + 2**(w-1), with s = m[i][j] + m[j][k] + bound - m[i][k].  With
    every entry in [0, top], s lies in [-top, 2*top + bound], and w keeps
    2*top + bound below 2**(w-1); so every field lies in [0, 2**w), no
    field borrows from its neighbour, and its top bit is set exactly when
    s >= 0, that is, when the triangle (i, j, k) holds.  A field of w <= 8
    bits is widened to a byte, so a row packs at C speed as its bytes.
    """
    n = len(m)
    w = (2 * max(map(max, m), default=0) + bound).bit_length() + 1
    if w <= 8:
        w, packed = 8, [int.from_bytes(bytes(row), "little") for row in m]
    else:
        packed = [sum(d << (w * k) for k, d in enumerate(row)) for row in m]
    ones = sum(1 << (w * k) for k in range(n))
    high = ones << (w - 1)
    lifted = [p + bound * ones + high for p in packed]
    for i, row in enumerate(m):
        step = {dij: dij * ones - packed[i] for dij in set(row)}
        for j, dij in enumerate(row):
            if (lifted[j] + step[dij]) & high != high:
                yield i, j


class FiniteMetricSpace(Record):
    """Labeled points with an exact distance matrix, ranked in its distance set and validated on construction."""

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    def __init__(self, labels: Sequence[str], dist: Sequence[Sequence]):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise InvalidMetricError("labels must be distinct")
        rows = tuple(tuple(rat(v) for v in row) for row in dist)
        if len(rows) != len(labels):
            raise InvalidMetricError(f"{len(labels)} labels but {len(rows)} matrix rows")
        entries = {id(v): v for row in rows for v in row}  # each distinct object is hashed once
        distances = tuple(sorted(set(entries.values())))
        by_value = dict(zip(distances, range(len(distances))))  # equal objects share a rank
        rank = {key: by_value[v] for key, v in entries.items()}.__getitem__
        ranks = [list(map(rank, map(id, row))) for row in rows]
        ok, violation = verify_metric(ranks, values=distances)
        if not ok:
            raise InvalidMetricError(f"not a metric: {violation.detail}")
        super().__init__(labels, rows)
        self.__dict__.update(_distances=distances, _ranks=ranks)

    @property
    def size(self) -> int:
        return len(self.labels)

    def distance(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def distance_set(self) -> tuple[Fraction, ...]:
        """All realized distances, sorted, always containing 0 (made on construction)."""
        return self._distances


PRODUCT_CAP = 1024  # product points per spec: product --verify at N = 1024 takes 0.3 s, 71 MB on 8x8x16 closure
# factors (SQRT_SUM_SQ 2.8 s, 158 MB, most of it writing floats), 2.7 s on line factors, left to the packed scan (99 s)


class ProductSpec(Record):
    """Factor spaces plus the combiner applied to coordinate distances, at most PRODUCT_CAP product points."""

    factors: tuple[FiniteMetricSpace, ...]
    combiner: Union[Combiner, SampledFunction]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("a product needs at least one factor")
        size = math.prod(sp.size for sp in self.factors)
        if size > PRODUCT_CAP:
            raise OutOfRangeError(f"product of factor sizes {size} exceeds the product cap {PRODUCT_CAP}: "
                                  f"it would build {size}^2 matrix entries")
        if isinstance(self.combiner, SampledFunction):
            if self.combiner.dim != len(self.factors):
                raise ValueError(
                    f"combiner dimension {self.combiner.dim} != {len(self.factors)} factors"
                )
            for tup in itertools.product(*(sp.distance_set() for sp in self.factors)):
                if PointN(tup) not in self.combiner:
                    raise CombinerDomainGapError(f"sampled combiner lacks distance tuple {PointN(tup)}")


def product_labels(factors: Sequence[FiniteMetricSpace]) -> list[tuple[str, ...]]:
    return list(itertools.product(*(sp.labels for sp in factors)))


def _distance_codes(factors: Sequence[FiniteMetricSpace]) -> tuple[list[tuple], list[list[int]]]:
    """The factor distance grid, and codes[p][q], the grid index of the pair's distance tuple.

    Each factor distance is coded by its rank in its factor's distance set
    times the grid size of the factors after it; a pair's code is their sum.
    """
    codes, stride = [[0]], 1  # grid codes of the factors after the current one
    for sp in reversed(factors):
        coded = [[rank * stride for rank in row] for row in sp._ranks]
        codes = [[x + y for x in head for y in tail] for head in coded for tail in codes]
        stride *= len(sp.distance_set())
    return list(itertools.product(*(sp.distance_set() for sp in factors))), codes


def product_metric(spec: ProductSpec, *, values=None) -> tuple[list[tuple[str, ...]], list[list]]:
    """Candidate distance matrix on the product point set.

    Entry (p, q) is the combiner applied to the coordinate distances.
    The combiner is called once per tuple of the factor distance grid,
    in ``itertools.product`` order, and entry (p, q) reads its value at
    the pair's grid index (:func:`_distance_codes`); given a list values,
    the rows are these indices and the table is appended to values.  The
    result is not guaranteed to satisfy the metric axioms; pair it with
    :func:`verify_metric`.
    """
    grid, codes = _distance_codes(spec.factors)
    if isinstance(spec.combiner, SampledFunction):  # ProductSpec checked that every distance tuple is a sample point
        table = [spec.combiner.value(PointN(tup)) for tup in grid]
    else:
        table = list(map(spec.combiner, grid))
    if values is not None:
        values.extend(table)
        return product_labels(spec.factors), codes
    return product_labels(spec.factors), [list(map(table.__getitem__, row)) for row in codes]


# Factor-path steps (a factor triple listed or a product triple tested) that cost one packed-scan
# row pair: the median break-even on exact tables of 2-4 closure or line factors, N = 24-216.
TRIPLES_PER_ROW_PAIR = 4


def product_metric_proved(factors: Sequence[FiniteMetricSpace], table, squares=None) -> bool:
    """True when the factors under the grid table of :func:`product_metric` (its roots decided on
    squares, given those) make a metric; False leaves the verdict to :func:`verify_metric`: a failed
    axiom, an inexact table, or more steps than TRIPLES_PER_ROW_PAIR * N**2, counted before any sum.

    Symmetry holds as the factors are metrics, identity when the table is 0 at grid index 0 alone,
    and each triangle when table[A] <= table[B] + table[C] on the sum set of the factors' rank
    triples (d(x,z), d(x,y), d(y,z)) times their strides (Borsík and Doboš, Math. Slovaca 1981).
    An isotone table keeps each factor's largest a per (b, c), which dominates the others.
    """
    budget = TRIPLES_PER_ROW_PAIR * math.prod(sp.size for sp in factors) ** 2 - sum(sp.size ** 3 for sp in factors)
    found = [{(b, c, a) for x in sp._ranks for b, y in zip(x, sp._ranks) for a, c in zip(x, y)} for sp in factors
             if budget >= 0]  # past the budget none, and their count 1 fails
    top = [{(b, c): a for b, c, a in sorted(f)} for f in found]  # the largest a per (b, c)
    if math.prod(map(len, top)) > budget or not all(isinstance(v, (Fraction, int)) for v in squares or table):
        return False
    _, ints = scale_to_integers(squares or table)
    strides = [math.prod(len(sp.distance_set()) for sp in factors[j + 1:]) for j in range(len(factors))]
    if isotone_by_unit_steps(ints, [len(sp.distance_set()) for sp in factors]):
        found = [[(b, c, a) for (b, c), a in t.items()] for t in top]
    if ints[0] != 0 or min(ints[1:], default=1) <= 0 or math.prod(map(len, found)) > budget:
        return False
    left, right = [(0, 0, 0)], [(0, 0, 0)]  # two sum sets of about equal size, met pair by pair
    for t, s in zip(found, strides):
        half = left if len(left) <= len(right) else right
        half[:] = [(A + a * s, B + b * s, C + c * s) for A, B, C in half for b, c, a in t]
    return all(squares is not None and (x - y - z) ** 2 <= 4 * y * z for A, B, C in left for a, b, c in right
               if (x := ints[A + a]) > (y := ints[B + b]) + (z := ints[C + c]))  # a > b + c: roots, if any, decide


class DistanceIncreaseViolation(Record):
    """Two product pairs whose distances invert a tuple comparison."""

    small_pair: tuple[tuple[str, ...], tuple[str, ...]]
    large_pair: tuple[tuple[str, ...], tuple[str, ...]]
    small_tuple: tuple[Fraction, ...]
    large_tuple: tuple[Fraction, ...]
    small_value: Fraction
    large_value: Fraction


def _require_shape(matrix, factors: tuple[FiniteMetricSpace, ...]) -> None:
    """Raise unless the matrix has a row and a column per product point, before any code grid is built."""
    n = math.prod(sp.size for sp in factors)
    if len(matrix) != n:
        raise IsoprodError(f"product of factor sizes is {n} but the matrix has {len(matrix)} rows")
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise IsoprodError(f"product of factor sizes is {n} but row {i} has {len(row)} entries")


def _first_pairs(matrix, factors: tuple[FiniteMetricSpace, ...], codes: list[list[int]]):
    """Yield each (grid index, entry) with the first product pair realizing it.

    A pair is two product labels, and codes[p][q] its grid index.  Pairs are
    scanned row by row over i <= j, lazily, so a caller that stops early
    reads no further.  A pair's entry is compared by ``in`` (identity first)
    with the entries met at its grid index (:func:`_distance_codes`); the
    caller has checked the matrix's shape (:func:`_require_shape`).
    """
    n = len(codes)
    labels = product_labels(factors)
    met = [[] for _ in range(math.prod(len(sp.distance_set()) for sp in factors))]  # per grid index, the entries met
    for i, (code_row, row) in enumerate(zip(codes, matrix)):
        for j in range(i, n):
            entries, v = met[code_row[j]], row[j]
            if v not in entries:
                entries.append(v)
                yield (code_row[j], v), (labels[i], labels[j])


def is_distance_increasing(
    matrix, factors: Sequence[FiniteMetricSpace]
) -> tuple[bool, Optional[DistanceIncreaseViolation]]:
    """Check monotonicity of the product distance in the tuple of coordinate distances."""
    factors = tuple(factors)
    _require_shape(matrix, factors)
    grid, codes = _distance_codes(factors)
    records = list(_first_pairs(matrix, factors, codes))
    ranks = list(itertools.product(*(range(len(sp.distance_set())) for sp in factors)))  # order as the grid does
    _, ints = scale_to_integers(Fraction(v) for (_, v), _ in records)  # Fraction(v): a float compares exactly
    inversion = first_inversion([ranks[code] for (code, _), _ in records], ints)
    if inversion is None:
        return True, None
    ((small, a), small_pair), ((large, b), large_pair) = records[inversion[0]], records[inversion[1]]
    return False, DistanceIncreaseViolation(small_pair, large_pair, grid[small], grid[large], a, b)


def extract_product_function(
    matrix, factors: Sequence[FiniteMetricSpace]
) -> SampledFunction:
    """Recover the combiner of a product metric on the distance grid.

    Every pair of product points with the same coordinate-distance
    tuple must carry the same distance, otherwise the matrix is no
    product and NotWellDefinedError reports the conflicting pairs: the
    first record of a tuple met again is its first pair with another
    distance, and the earliest such record is the first conflict.
    """
    factors = tuple(factors)
    _require_shape(matrix, factors)
    grid, codes = _distance_codes(factors)
    table: dict[int, tuple] = {}  # grid index -> (distance, first pair)
    for (code, val), pair in _first_pairs(matrix, factors, codes):
        if code in table:
            first_val, first_pair = table[code]
            raise NotWellDefinedError(
                f"pairs {first_pair} and {pair} share the distance tuple "
                f"{PointN(grid[code])} but have distances {first_val} and {rat(val)}",
                pair_a=first_pair,
                pair_b=pair,
            )
        table[code] = (rat(val), pair)
    if len(table) != len(grid):
        raise AssertionError(f"{len(table)} of the {len(grid)} distance grid tuples realized")
    return SampledFunction((PointN(grid[code]), val) for code, (val, _) in table.items())


class MetricPreservingReport(Record):
    isotone: bool
    amenable: bool
    amenable_witness: Optional[PointN]
    subadditive: bool
    subadditive_certificate: object


def metric_preserving_verdict(f: SampledFunction) -> tuple[bool, MetricPreservingReport]:
    """Conjunction of amenability and subadditivity for an isotone sample set.

    True means the samples extend to a function that turns any factor
    metrics into a product metric.
    """
    require_isotone(f)
    amen_ok, amen_witness = is_amenable(f)
    sub_ok, sub_cert = is_subadditive(f)
    report = MetricPreservingReport(
        isotone=True,
        amenable=amen_ok,
        amenable_witness=amen_witness,
        subadditive=sub_ok,
        subadditive_certificate=sub_cert,
    )
    return amen_ok and sub_ok, report


def max_ultrametric(x: Fraction, y: Fraction) -> Fraction:
    """The ultrametric max{x, y} for distinct points, 0 on the diagonal."""
    return Fraction(0) if x == y else max(x, y)


def unbounded_gauge(t: Fraction) -> Fraction:
    """The gauge t/(1-t) on [0, 1): zero at 0, blowing up toward 1."""
    t = rat(t)
    if not 0 <= t < 1:
        raise ValueError(f"gauge argument must lie in [0, 1), got {t}")
    return t / (1 - t)


def unbounded_witness(bound) -> tuple[Fraction, Fraction]:
    """Two points of [0, 1) whose gauged ultrametric distance exceeds the bound.

    Demonstrates that no increasing finite gauge dominates the gauged
    metric: distances under it are unbounded although the underlying
    ultrametric never exceeds 1.
    """
    m = rat(bound)
    if m <= 0:
        raise ValueError(f"bound must be positive, got {m}")
    x = Fraction(0)
    y = (2 * m + 1) / (2 * m + 2)
    if unbounded_gauge(max_ultrametric(x, y)) <= m:
        raise AssertionError(f"gauged distance of {x}, {y} does not exceed {m}")
    return x, y
