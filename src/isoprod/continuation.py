"""Continuations of sampled functions to the whole orthant.

Three constructions, all exact:

* the sup-continuation, the least isotone extension of an isotone
  sample set;
* the amenable isotone continuation, the lower-cone sup
  (``lower_cone_max``) joined with one value per positive coordinate
  t = y_j of the probe: t itself on an axis whose ``f._caps`` entry is 0
  (no positive sample), ``upper_cone_min(f, j, t)`` on the others;
* the subadditive envelope, the greatest isotone subadditive function
  dominated by the samples, computed as an exact minimum-cost cover of
  the probe by sample points, plus axis points of constant value c on
  the axes whose ``f._caps`` entry is 0, and returned together with a
  covering certificate.

Cheapest covers come from one table over the residual demands left
after each part (``_min_cover``), filled bottom-up without recursion on
the integer rows and int values a sampled function prepares once, within
``COVER_BUDGET`` steps; an axis constant c joins those values over one
denominator.  A residual is one mixed-radix int and a move subtracts an
int, so the table holds one int cost per residual; its states, its
tie-break and its step count are those of a table keyed by residual tuples.
``sampled.is_subadditive`` asks one table for every sample, and
``subadditive_envelopes`` one for all probes needing no axis points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, groupby
from math import lcm
from operator import add, itemgetter, le, mul
from typing import Callable, Sequence

from .errors import CoverBudgetError, DimensionMismatchError, NotAmenableError
from .points import PointN, Record, axis_vector, rat
from .sampled import SampledFunction, is_amenable, require_isotone

# Its time at the bound (Xeon, Python 3.11; `envelope --probe` on a 1-D function of 5 samples): 1e7 ends
# in CoverBudgetError after 5.7 s; 1e6 stays within and runs 10.7 s, as the unbudgeted fill pass follows.
COVER_BUDGET = 10_000_000  # residual x touching-ground steps one cover table may explore
ROW_CACHE = 1 << 16  # removal-row entries one axis of a cover table keeps


def lower_cone_max(f: SampledFunction, y: PointN) -> Fraction:
    """The maximum of f over the sample points below y; the empty maximum is 0."""
    if y.dim != f.dim:
        raise DimensionMismatchError(f"probe dimension {y.dim} != {f.dim}")
    top = [t.numerator * f._den // t.denominator for t in y.coords]  # rows below y: below floor(y * den)
    return Fraction(max((v for v, row in zip(f._int_values, f._rows) if all(map(le, row, top))), default=0),
                    f._value_den)


def upper_cone_min(f: SampledFunction, j: int, t: Fraction) -> Fraction:
    """The least value of f over the samples whose j-th coordinate reaches min(t, cap), for
    t > 0 and cap the largest j-th sample coordinate, which must be positive."""
    # a sample reaches min(t, cap) iff its row reaches min(ceil(t * den), cap); the cap's own does
    need = min(_ceil_row(f, (t,))[0], f._caps[j - 1])
    return Fraction(min(v for v, row in zip(f._int_values, f._rows) if row[j - 1] >= need), f._value_den)


def sup_continuation(f: SampledFunction, y: PointN) -> Fraction:
    """Value at y of the least isotone extension of f.

    The maximum of f over the sample points below y, with the empty
    maximum taken to be 0.  Agrees with f on its own domain.
    """
    require_isotone(f)
    return lower_cone_max(f, y)


def amenable_continuation_precheck(f: SampledFunction) -> tuple[bool, dict]:
    """Verify the zero-level condition for amenable continuation.

    For a finite amenable function the condition reduces to: every
    subset of samples whose minimum value is 0 contains the origin, and
    the origin projects to 0 on every axis.  The reduction holds for
    every isotone amenable f, so the check is those two requirements;
    no subset is scanned and ``subsets_scanned`` is always 0.
    """
    require_isotone(f)
    ok, witness = is_amenable(f)
    if not ok:
        raise NotAmenableError(f"not amenable: offending point {witness}")
    return True, {"subsets_scanned": 0}


def amenable_isotone_continuation(f: SampledFunction, y: PointN) -> Fraction:
    """Value at y of an isotone amenable continuation of f.

    The lower-cone sup of f joined with one axis value per positive
    coordinate t = y_j: t itself on an axis where no sample is positive,
    ``upper_cone_min(f, j, t)`` on the others.  Both rules are
    nondecreasing in t, so the value at y_j is the sup over the axis
    points below y.  Restricts to f on its domain and is strictly
    positive at every y above the origin.
    """
    amenable_continuation_precheck(f)
    best = lower_cone_max(f, y)
    for j, t in enumerate(y.coords, start=1):
        if t > 0:
            best = max(best, upper_cone_min(f, j, t) if f._caps[j - 1] else t)
    return best


class CoverCertificate(Record):
    """A multiset of ground points covering a target, with its exact cost.

    The coordinatewise sum of the parts dominates the target; the empty
    certificate covers only the origin.
    """

    target: PointN
    parts: tuple[tuple[PointN, int], ...]
    cost: Fraction

    def __post_init__(self):
        object.__setattr__(self, "cost", rat(self.cost))
        dim = self.target.dim
        total = [0] * dim  # the coordinatewise sum of the parts
        for p, mult in self.parts:
            if mult <= 0:
                raise ValueError("part multiplicities must be positive")
            if p.dim != dim:
                raise DimensionMismatchError(f"dimension mismatch: {dim} vs {p.dim}")
            total = [t + mult * x for t, x in zip(total, p.coords)]
        if not all(map(le, self.target.coords, total)):
            raise ValueError(f"parts do not cover {self.target}")

    def part_count(self) -> int:
        return sum(m for _, m in self.parts)

    def verify(self, value_of: Callable[[PointN], Fraction]) -> bool:
        """Recompute the cost from a valuation and compare exactly."""
        return self.cost == sum(
            (rat(value_of(p)) * m for p, m in self.parts), Fraction(0)
        )


def _ceil_row(f: SampledFunction, coords) -> tuple[int, ...]:
    """The coordinates times the common denominator of f's rows, each rounded up."""
    return tuple(-(-t.numerator * f._den // t.denominator) for t in coords)


def _sample_ground(f: SampledFunction, den: int) -> list[tuple[PointN, int, tuple[int, ...]]]:
    """The non-origin samples of f as (point, value times den, row), den a multiple of f's value denominator."""
    return [(a, v * den // f._value_den, row) for a, v, row in zip(f.domain, f._int_values, f._rows) if any(row)]


def _min_cover(ground: list[tuple[PointN, int, tuple[int, ...]]],
               demands: Sequence[tuple[int, ...]]) -> tuple[list[int], Callable[[int], tuple[tuple[PointN, int], ...]]]:
    """Exact cheapest covers of several integer demands by multisets of ground points.

    ``ground`` holds distinct nonzero (point, int value, integer row) triples
    in lexicographic order of their points, the values over one common
    denominator; ``demands[i]`` is a target on the rows' scale rounded up (a
    sum of rows reaches one exactly when it reaches the other), and must be
    coverable.  Costs are ints over the values' denominator.

    A residual demand r is coded as one mixed-radix int: axis j has digits
    0..hi_j, hi_j the largest demand coordinate on it, and the last axis has
    stride 1, so code order is lexicographic order.  A ground point e leaves
    clamp(r - e), whose code is r's less the removal of e, the sum over the
    axes of min(digit, e_j) times the stride.  Each axis keeps the removal
    row of a digit, for every ground point at once, up to ``ROW_CACHE``
    entries.  A removal is 0 exactly when e touches no positive coordinate
    of r; such ground never moves, and every other move lowers the code.

    A first pass collects the residuals reachable from the demands; a
    second fills the least cost of each in increasing code order, keeping
    one int per residual and no list per move.  The least cheapest cover of
    r is its least cheapest first part (the least k with value(e_k) plus the
    cost of what e_k leaves equal to the cost of r) followed by the least
    cheapest cover of what that part leaves, so the chain of chosen first
    parts is the cheapest cover with the lexicographically least part
    sequence.  Exploring costs one step per residual and touching ground
    point, and past ``COVER_BUDGET`` steps CoverBudgetError is raised.  The
    residuals, the tie-break and the step count are those of a table keyed
    by residual tuples (``tests/cover_table.py``).

    Returns the cost of every demand and a function giving the parts
    (point, multiplicity) of the cheapest cover of the i-th demand.
    """
    values = [v for _, v, _ in ground]
    hi = [max(column) for column in zip(*demands)]
    strides = [1] * len(hi)
    for j in range(len(hi) - 2, -1, -1):
        strides[j] = strides[j + 1] * (hi[j + 1] + 1)
    columns = [[row[j] * s for _, _, row in ground] for j, s in enumerate(strides)]
    zeros = [0] * len(ground)
    removal_rows: list[dict[int, list[int]]] = [{} for _ in hi]  # per axis: digit x stride -> min(x, column)
    kept = ROW_CACHE // max(len(ground), 1)  # rows each axis keeps

    def removals(r: int) -> list[int]:
        """How much each ground point lowers the code r: 0 for the points touching none of it."""
        taken = None
        for s, column, cache in zip(strides, columns, removal_rows):
            low = r % s
            x = r - low
            r = low
            if x:
                row = cache.get(x)
                if row is None:
                    row = [c if c < x else x for c in column]
                    if len(cache) < kept:
                        cache[x] = row
                taken = row if taken is None else list(map(add, taken, row))
        return taken or zeros

    codes = [sum(map(mul, d, strides)) for d in demands]
    reachable = set(codes)
    stack = list(reachable)
    steps = 0
    while stack:
        r = stack.pop()
        taken = removals(r)
        steps += len(taken) - taken.count(0)
        if steps > COVER_BUDGET:
            raise CoverBudgetError(f"the cover search exceeds its budget of {COVER_BUDGET} residual x ground steps")
        left = set(map(r.__sub__, taken))
        left -= reachable
        reachable |= left
        stack += left
    reachable = sorted(reachable)  # in code order; the set is freed
    cost = {0: 0}
    for r in reachable:
        if r:
            taken = removals(r)
            best = min(map(add, compress(values, taken), map(cost.__getitem__, map(r.__sub__, compress(taken, taken)))),
                       default=None)
            if best is None:
                raise AssertionError("no cover exists; ground set construction is broken")
            cost[r] = best

    def cover(i: int) -> tuple[tuple[PointN, int], ...]:
        chain = []
        r = codes[i]
        while r:
            for k, x in enumerate(removals(r)):
                if x and values[k] + cost[r - x] == cost[r]:
                    break
            chain.append(k)
            r -= x
        return tuple((ground[k][0], len(list(run))) for k, run in groupby(chain))

    return [cost[r] for r in codes], cover


def subadditive_envelopes(f: SampledFunction, probes: Sequence[PointN],
                          c=Fraction(1)) -> list[tuple[Fraction, CoverCertificate]]:
    """Greatest isotone subadditive minorant of the samples, at each probe.

    The exact minimum, over finite multisets of sample points whose sum
    dominates y, of the total sampled value; the infimum is attained
    because only parts touching a still uncovered coordinate count.
    Axes carrying no positive sample are first extended by axis points
    of constant value c > 0 so a cover always exists.  Returns per probe
    the value and the cheapest covering certificate (lexicographically
    least on ties), from ``_min_cover`` tables on f's integer rows: one
    over all non-origin samples for every probe whose positive axes all
    carry samples, and one more per set of axis points other probes need.
    Each table has its own ``COVER_BUDGET``.
    """
    for i, y in enumerate(probes):  # a bad first probe is reported before a bad c, and a bad c before later probes
        if y.dim != f.dim:
            raise DimensionMismatchError(f"probe dimension {y.dim} != {f.dim}")
        if i == 0:
            c = rat(c)
            if c <= 0:
                raise ValueError(f"the axis constant must be positive, got {c}")
    tables: dict[tuple[PointN, ...], list[int]] = {}  # the axis points probes need -> those probes
    for i, y in enumerate(probes):
        axes = tuple(axis_vector(j, t, f.dim) for j, (t, cap) in enumerate(zip(y.coords, f._caps), start=1)
                     if t and not cap)
        tables.setdefault(axes, []).append(i)
    results: list = [None] * len(probes)
    for axes, members in tables.items():
        den = lcm(f._value_den, c.denominator if axes else 1)
        # the samples come in domain order; axis points join them by their rows, which keep the points' order
        axis_ground = [(a, c.numerator * den // c.denominator, _ceil_row(f, a.coords)) for a in axes]
        ground = sorted(_sample_ground(f, den) + axis_ground, key=itemgetter(2)) if axes else _sample_ground(f, den)
        costs, cover = _min_cover(ground, [_ceil_row(f, probes[i].coords) for i in members])
        for k, i in enumerate(members):
            value = Fraction(costs[k], den)
            results[i] = value, CoverCertificate(probes[i], cover(k), value)
    return results


def subadditive_envelope(f: SampledFunction, y: PointN, c=Fraction(1)) -> tuple[Fraction, CoverCertificate]:
    """Greatest isotone subadditive minorant of the samples, at y: ``subadditive_envelopes``
    for the one probe y, the value with its cheapest covering certificate."""
    return subadditive_envelopes(f, [y], c)[0]
