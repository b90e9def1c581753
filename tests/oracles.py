"""Brute-force oracles, deliberately independent of the library paths.

No pruning, no memoization, no integer scaling: plain enumeration over
bounded multiplicity vectors in exact Fractions.  Tests compare the
optimized library implementations against these.  One exception: the
Cantor pair census builds its intervals in Fractions but compares the
4^k pairs in units of 3^-k, which is exact and 30 times faster.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor

from isoprod.points import PointN, axis_vector, leq
from isoprod.sampled import SampledFunction


def _ground_set(f: SampledFunction, target: PointN, c: Fraction):
    ground = []
    for a, v in f.items():
        if not a.is_origin():
            ground.append((a, v))
    # the axes some sample is positive on, read from the coordinates, not from f's prepared rows
    support = {j for a in f.domain for j, aj in enumerate(a.coords, start=1) if aj > 0}
    for j in range(1, f.dim + 1):
        if j not in support and target.coords[j - 1] > 0:
            ground.append((axis_vector(j, target.coords[j - 1], f.dim), c))
    ground.sort(key=lambda item: item[0].coords)
    return ground


def _multiplicity_bound(a: PointN, target: PointN) -> int:
    bound = 0
    for aj, yj in zip(a.coords, target.coords):
        if aj > 0 and yj > 0:
            bound = max(bound, ceil(yj / aj))
    return bound


def cover_enumerate_min(f: SampledFunction, target: PointN, c=Fraction(1)):
    """Minimum cover cost by full enumeration; (cost, part coords tuple)."""
    if target.is_origin():
        return Fraction(0), ()
    ground = _ground_set(f, target, Fraction(c))
    bounds = [_multiplicity_bound(a, target) for a, _ in ground]
    best = None
    for mults in itertools.product(*(range(b + 1) for b in bounds)):
        total = [Fraction(0)] * target.dim
        cost = Fraction(0)
        parts = []
        for (a, v), m in zip(ground, mults):
            if m:
                cost += v * m
                parts.extend([a.coords] * m)
                for i, aj in enumerate(a.coords):
                    total[i] += m * aj
        if all(t >= y for t, y in zip(total, target.coords)):
            key = (cost, tuple(parts))
            if best is None or key < best:
                best = key
    return best


def subadditive_violation(f: SampledFunction):
    """First cheaper-cover violation by direct enumeration, or None.

    Enumerates every multiset of sample points with per-element
    multiplicity bounded by the coordinatewise ceiling rule; the empty
    multiset covers the origin, so a positive origin value counts as a
    violation.  A violation is any cover strictly cheaper than the
    covered sample's own value.
    """
    ground = [(a, v) for a, v in f.items() if not a.is_origin()]
    for x in f.domain:
        fx = f.value(x)
        bounds = [_multiplicity_bound(a, x) for a, _ in ground]
        for mults in itertools.product(*(range(b + 1) for b in bounds)):
            total = [Fraction(0)] * f.dim
            cost = Fraction(0)
            for (a, v), m in zip(ground, mults):
                if m:
                    cost += v * m
                    for i, aj in enumerate(a.coords):
                        total[i] += m * aj
            if all(t >= c for t, c in zip(total, x.coords)) and fx > cost:
                parts = tuple(
                    (a, m) for (a, _), m in zip(ground, mults) if m
                )
                return x, parts, cost
    return None


def modulus_enumerate(g, eps: PointN) -> Fraction:
    """Modulus by scanning every lattice pair, straight off the definition."""
    best = Fraction(0)
    pts = [(idx, g.value_at(idx)) for idx in g.indices()]
    step = g.step
    limits = [floor(c / step) for c in eps.coords]  # an int gap is within c / step exactly when within its floor
    for x, gx in pts:
        for y, gy in pts:
            if all(abs(a - b) <= e for a, b, e in zip(x, y, limits)):
                best = max(best, abs(gx - gy))
    return best


def modulus_by_difference(g) -> dict:
    """Modulus at every box {index: modulus at g.point(index)}, from one scan of the lattice pairs.

    Each unordered pair is read once and its gap |g(x) - g(y)| kept as the largest of its index
    difference |x - y|; the modulus at a box is the largest gap over the differences inside it.
    O(size^2) per grid, where :func:`modulus_enumerate` at every box is O(size^3).
    """
    pts = [(idx, g.value_at(idx)) for idx in g.indices()]
    gaps = {}
    for (x, gx), (y, gy) in itertools.combinations_with_replacement(pts, 2):
        d = tuple(abs(a - b) for a, b in zip(x, y))
        gaps[d] = max(gaps.get(d, Fraction(0)), abs(gx - gy))
    return {box: max(gap for d, gap in gaps.items() if all(a <= b for a, b in zip(d, box))) for box, _ in pts}


def naive_three_point(values, a, b):
    """Three-point line search over every ordered triple."""
    vals = sorted(values)
    for x1 in vals:
        for x2 in vals:
            for x3 in vals:
                if (
                    abs(x1 - x2) == a
                    and abs(x2 - x3) == b
                    and abs(x1 - x3) == a + b
                ):
                    return x1, x2, x3
    return None


def cantor_orbit_member(t) -> bool:
    """Membership in the dilated Cantor union by the orbit of the tent maps.

    t >= 0 is divided by 3 until it is at most 1; then x -> 3x (for
    x <= 1/3) or x -> 3x - 2 (for x >= 2/3) is iterated.  A point of
    the open middle third (1/3, 2/3) leaves the Cantor set, and an
    orbit that repeats stays in it forever.
    """
    x = Fraction(t)
    if x < 0:
        return False
    while x > 1:
        x /= 3
    seen = set()
    while x not in seen:
        seen.add(x)
        if 3 * x <= 1:
            x = 3 * x
        elif 3 * x >= 2:
            x = 3 * x - 2
        else:
            return False
    return True


def cantor_split_pair(t) -> tuple[Fraction, Fraction]:
    """The digit-split Cantor pair at distance t, for a triadic t in (0, 1), by long division.

    The base-3 digits of w = (1 + t)/2 are read one by one until the
    remainder repeats.  Each digit splits into two digits from {0, 2} that
    average to it (0 -> 0, 0; 1 -> 2, 0; 2 -> 2, 2), giving u and v with
    u + v = 1 + t, and the pair is (u, 1 - v).  A period of p digits with
    value P as a p-digit integer, after s preperiod digits, adds the
    geometric series P/3^(s+p) * (1 + 3^-p + 3^-2p + ...) = P/(3^p - 1)/3^s.
    """
    w = (1 + Fraction(t)) / 2
    digits, seen = [], {}
    while w not in seen:  # w is the remainder, in [0, 1)
        seen[w] = len(digits)
        d = floor(3 * w)
        digits.append(d)
        w = 3 * w - d
    start = seen[w]
    split = {0: (0, 0), 1: (2, 0), 2: (2, 2)}

    def value(ds):
        pre = sum(Fraction(d, 3 ** (i + 1)) for i, d in enumerate(ds[:start]))
        period = sum(d * 3 ** i for i, d in enumerate(reversed(ds[start:])))
        return pre + Fraction(period, 3 ** len(ds[start:]) - 1) / 3**start

    u = value([split[d][0] for d in digits])
    v = value([split[d][1] for d in digits])
    return u, 1 - v


def cantor_intervals(level: int) -> list[tuple[Fraction, Fraction]]:
    """The 2^level closed intervals of the level-k Cantor set, left to right,
    built by removing the open middle third of each interval, starting from [0, 1]."""
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(level):
        intervals = [piece for a, b in intervals for piece in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
    return intervals


def scaled_cantor_endpoints(level: int) -> list[Fraction]:
    """The sorted endpoints of the level-k intervals of C and of 3C, from the Fraction intervals."""
    return sorted({e for a, b in cantor_intervals(level) for e in (a, b, 3 * a, 3 * b)})


def cantor_pair_census(level: int) -> tuple[dict, list]:
    """Every ordered pair (I, J) of level-k Cantor intervals that can realize a distance of 1/3.

    All 4^level pairs are scanned.  (I, J) can realize 1/3 when |x - y| = 1/3 for
    some x in I and y in J, and it hugs the limit combination (x*, y*) when x*
    lies in I and y* in J.  Returns {(x*, y*): [(min I, min J), ...]} over the six
    combinations of 0, 1/3, 2/3 and 1 a third apart, pairs in scan order, and the
    strays: the pairs that can realize 1/3 but hug no combination.
    """
    unit = 3**level
    third = unit // 3
    ends = [(int(a * unit), int(b * unit)) for a, b in cantor_intervals(level)]
    limits = [(0, 1), (1, 2), (2, 3), (1, 0), (2, 1), (3, 2)]
    hugging = {limit: [] for limit in limits}
    strays = []
    for a, b in ends:
        for c, d in ends:
            if not (a - d <= third <= b - c or a - d <= -third <= b - c):  # x - y ranges over [a - d, b - c]
                continue
            hugs = [(x, y) for x, y in limits if a <= x * third <= b and c <= y * third <= d]
            (hugging[hugs[0]] if hugs else strays).append((Fraction(a, unit), Fraction(c, unit)))
    return {(Fraction(x, 3), Fraction(y, 3)): found for (x, y), found in hugging.items()}, strays


def isotone_pairs_hold(f: SampledFunction) -> bool:
    return all(
        f.value(x) <= f.value(y)
        for x in f.domain
        for y in f.domain
        if leq(x, y)
    )


def difference_bound_enumerate(g):
    """First ordered lattice pair, x-major, with |g(x) - g(y)| > g(|x - y|), or None.

    Scans the full square of index pairs in Fractions, each value read once.
    """
    value = {idx: g.value_at(idx) for idx in g.indices()}
    for x in value:
        for y in value:
            d = tuple(abs(a - b) for a, b in zip(x, y))
            if abs(value[x] - value[y]) > value[d]:
                return g.point(x), g.point(y)
    return None


def product_pairs(matrix, factors):
    """(pair of labels, distance tuple, entry) for product pairs i <= j, row by row."""
    pts = list(itertools.product(*(range(sp.size) for sp in factors)))
    for i, p in enumerate(pts):
        for j in range(i, len(pts)):
            q = pts[j]
            labels = (
                tuple(sp.labels[a] for sp, a in zip(factors, p)),
                tuple(sp.labels[b] for sp, b in zip(factors, q)),
            )
            tup = tuple(sp.distance(a, b) for sp, a, b in zip(factors, p, q))
            yield labels, tup, Fraction(matrix[i][j])


def product_conflict(matrix, factors):
    """The first product pair whose distance differs from the first pair of its tuple.

    Returns (first pair, conflicting pair, tuple, first value, value), or None.
    """
    first = {}
    for pair, tup, value in product_pairs(matrix, factors):
        if tup not in first:
            first[tup] = (pair, value)
        elif first[tup][1] != value:
            return first[tup][0], pair, tup, first[tup][1], value
    return None


def distance_increase_violation(matrix, factors):
    """First (small, large) pair of first-realizing pairs that inverts a tuple comparison.

    The candidates are, in scan order, the first pair realizing each
    (tuple, distance); returns (small pair, large pair, small tuple,
    large tuple, small value, large value), or None.
    """
    seen = set()
    firsts = []
    for pair, tup, value in product_pairs(matrix, factors):
        if (tup, value) not in seen:
            seen.add((tup, value))
            firsts.append((pair, tup, value))
    for pair_a, tup_a, val_a in firsts:
        for pair_b, tup_b, val_b in firsts:
            if all(x <= y for x, y in zip(tup_a, tup_b)) and val_a > val_b:
                return pair_a, pair_b, tup_a, tup_b, val_a, val_b
    return None


def metric_violation(matrix, tol=0):
    """The first failed metric axiom by direct scan, as (kind, indices, detail), or None.

    Axioms in order: a square shape and nonnegative entries (ValueError
    otherwise), symmetry over i < j, a zero diagonal, positive entries
    off it, then d(i,k) <= d(i,j) + d(j,k) over every (i, j, k); each
    relaxed by tol and scanned in lexicographic order.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    for i, j in itertools.product(range(n), repeat=2):
        if matrix[i][j] < 0:
            raise ValueError(f"negative entry at ({i}, {j})")
    for i, j in itertools.combinations(range(n), 2):
        if abs(matrix[i][j] - matrix[j][i]) > tol:
            return "symmetry", (i, j), f"d({i},{j})={matrix[i][j]} != d({j},{i})={matrix[j][i]}"
    for i in range(n):
        if matrix[i][i] > tol:
            return "identity", (i, i), f"d({i},{i})={matrix[i][i]} != 0"
    for i, j in itertools.product(range(n), repeat=2):
        if i != j and matrix[i][j] <= tol:
            return "identity", (i, j), f"d({i},{j})={matrix[i][j]} vanishes off the diagonal"
    for i, j, k in itertools.product(range(n), repeat=3):
        if matrix[i][k] > matrix[i][j] + matrix[j][k] + tol:
            detail = (
                f"d({i},{k})={matrix[i][k]} > d({i},{j})+d({j},{k})"
                f"={matrix[i][j]}+{matrix[j][k]}"
            )
            return "triangle", (i, j, k), detail
    return None


def root_metric_violation(squares):
    """The first failed metric axiom of the matrix of square roots of squares (exact, nonnegative
    rationals), by direct scan in the order of :func:`metric_violation`, as (kind, indices), or None.

    No root is taken: sqrt(a) <= sqrt(b) + sqrt(c) holds exactly when a - b - c <= 0 or
    (a - b - c)**2 <= 4bc, the two sides being nonnegative; roots are equal or zero exactly
    when their squares are.
    """
    n = len(squares)
    for i, j in itertools.combinations(range(n), 2):
        if squares[i][j] != squares[j][i]:
            return "symmetry", (i, j)
    for i in range(n):
        if squares[i][i] != 0:
            return "identity", (i, i)
    for i, j in itertools.product(range(n), repeat=2):
        if i != j and squares[i][j] == 0:
            return "identity", (i, j)
    for i, j, k in itertools.product(range(n), repeat=3):
        a, b, c = squares[i][k], squares[i][j], squares[j][k]
        if a - b - c > 0 and (a - b - c) ** 2 > 4 * b * c:
            return "triangle", (i, j, k)
    return None


def amenable_continuation_value(f: SampledFunction, y: PointN) -> Fraction:
    """The amenable isotone continuation at y, straight off its definition.

    Each positive coordinate t = y_j names the axis point t*e_j below y.
    On an axis where no sample is positive it is valued t; elsewhere it is
    valued by the least sample value over the samples whose j-th
    coordinate reaches min(t, the largest j-th sample coordinate).  The
    result is the greatest of those axis values and of the sample values
    below y (0 when there are none).
    """
    best = max((v for a, v in f.items() if all(p <= q for p, q in zip(a.coords, y.coords))),
               default=Fraction(0))
    for j, t in enumerate(y.coords):
        if t > 0:
            cap = max(a.coords[j] for a, _ in f.items())
            if cap == 0:
                best = max(best, t)
            else:
                best = max(best, min(v for a, v in f.items() if a.coords[j] >= min(t, cap)))
    return best
