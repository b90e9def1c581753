"""Continuations of sampled functions to the whole orthant.

Three constructions, all exact:

* the sup-continuation, the least isotone extension of an isotone
  sample set;
* the amenable isotone continuation, which first extends along the
  coordinate axes (identity rule on axes with no positive samples,
  upper-cone infimum on the rest) and then takes lower-cone sups;
* the subadditive envelope, the greatest isotone subadditive function
  dominated by the samples, computed as an exact minimum-cost cover of
  the probe by sample points and returned together with a covering
  certificate.

Cheapest covers come from one table over the residual demands left
after each part (``_min_cover``), filled bottom-up without recursion on
the integer rows a sampled function prepares once, within ``COVER_BUDGET``
steps.  ``sampled.is_subadditive`` asks one table for every sample, and
``subadditive_envelopes`` one for all probes needing no axis points.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import groupby
from operator import le
from typing import Callable, Mapping, Sequence

from .errors import CoverBudgetError, DimensionMismatchError, NotAmenableError
from .points import PointN, Record, axis_vector, leq, origin, rat, scale_to_integers, sort_key
from .sampled import SampledFunction, is_amenable, projection_support, require_isotone

COVER_BUDGET = 10_000_000  # residual x touching-ground steps one cover table may explore


def lower_cone_max(f: SampledFunction, y: PointN) -> Fraction:
    """The maximum of f over the sample points below y; the empty maximum is 0."""
    if y.dim != f.dim:
        raise DimensionMismatchError(f"probe dimension {y.dim} != {f.dim}")
    top = [t.numerator * f._den // t.denominator for t in y.coords]  # rows below y: below floor(y * den)
    return max((v for (_, v), row in zip(f.items(), f._rows) if all(map(le, row, top))),
               default=Fraction(0))


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
    return True, {
        "reduction": (
            "the origin is the unique zero of an amenable function, so any "
            "sample subset with infimum value 0 contains it and all its "
            "projections are 0"
        ),
        "subsets_scanned": 0,
    }


class AxisRule(enum.Enum):
    """How an axis ray is valued when a function is extended along it."""

    UPPER_CONE_INF = "UPPER_CONE_INF"
    IDENTITY = "IDENTITY"
    CONSTANT = "CONSTANT"


class AxisExtendedFunction(Record):
    """A sampled function together with per-axis ray extensions.

    ``rules`` assigns each 1-based axis the rule valuing its ray points;
    axes on which no sample is positive must use IDENTITY or CONSTANT,
    the others UPPER_CONE_INF.
    """

    base: SampledFunction
    rules: Mapping[int, AxisRule]
    c: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "c", rat(self.c))
        if self.c <= 0:
            raise ValueError(f"the axis constant must be positive, got {self.c}")
        support = projection_support(self.base)
        for j, rule in self.rules.items():
            if not 1 <= j <= self.base.dim:
                raise IndexError(f"axis {j} out of range")
            if j in support and rule is not AxisRule.UPPER_CONE_INF:
                raise ValueError(f"axis {j} has positive samples; rule {rule} invalid")
            if j not in support and rule is AxisRule.UPPER_CONE_INF:
                raise ValueError(f"axis {j} has no positive samples; {rule} undefined")

    @property
    def axis_caps(self) -> dict[int, Fraction]:
        """Per axis, the largest sample projection on it."""
        return {j: Fraction(cap, self.base._den) for j, cap in enumerate(self.base._caps, start=1)}

    @classmethod
    def for_amenable_continuation(cls, f: SampledFunction) -> "AxisExtendedFunction":
        """Identity rule on unsupported axes, upper-cone infimum elsewhere."""
        support = projection_support(f)
        rules = {
            j: (AxisRule.UPPER_CONE_INF if j in support else AxisRule.IDENTITY)
            for j in range(1, f.dim + 1)
        }
        return cls(f, rules)

    @classmethod
    def for_envelope(cls, f: SampledFunction, c) -> "AxisExtendedFunction":
        """Constant rule on unsupported axes only."""
        support = projection_support(f)
        rules = {j: AxisRule.CONSTANT for j in range(1, f.dim + 1) if j not in support}
        return cls(f, rules, c)

    def axis_value(self, j: int, t) -> Fraction:
        """Value at the axis point with coordinate t > 0 on axis j."""
        t = rat(t)
        if t <= 0:
            raise ValueError("axis points have a positive coordinate")
        rule = self.rules.get(j)
        if rule is None:
            raise KeyError(f"axis {j} carries no extension rule")
        if rule is AxisRule.IDENTITY:
            return t
        if rule is AxisRule.CONSTANT:
            return self.c
        # a sample reaches min(t, cap) iff its row reaches min(ceil(t * den), cap); the cap's own does
        need = min(_ceil_row(self.base, (t,))[0], self.base._caps[j - 1])
        return min(v for (_, v), row in zip(self.base.items(), self.base._rows) if row[j - 1] >= need)

    def value(self, p: PointN) -> Fraction:
        """Value at a sample point or at a point on a ruled axis ray."""
        if p in self.base:
            return self.base.value(p)
        positive = [(j, c) for j, c in enumerate(p.coords, start=1) if c > 0]
        if len(positive) != 1:
            raise KeyError(f"{p} is neither a sample nor an axis point")
        j, t = positive[0]
        return self.axis_value(j, t)

    def sup_below(self, y: PointN) -> Fraction:
        """Lower-cone sup of the extension: max over samples and axis rays below y."""
        best = lower_cone_max(self.base, y)
        for j in self.rules:
            # every rule values its ray nondecreasingly, so the sup over the
            # ray points below y is the value at y's own coordinate
            t = y.coords[j - 1]
            if t > 0:
                best = max(best, self.axis_value(j, t))
        return best


def amenable_isotone_continuation(f: SampledFunction, y: PointN) -> Fraction:
    """Value at y of an isotone amenable continuation of f.

    Axes with no positive sample get the identity rule, the remaining
    axes the upper-cone infimum of the samples, and the result is the
    lower-cone sup of the extended sample set.  Restricts to f on its
    domain and is strictly positive at every y above the origin.
    """
    amenable_continuation_precheck(f)
    extension = AxisExtendedFunction.for_amenable_continuation(f)
    return extension.sup_below(y)


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
        total = origin(self.target.dim)
        for p, mult in self.parts:
            if mult <= 0:
                raise ValueError("part multiplicities must be positive")
            for _ in range(mult):
                total = total + p
        if not leq(self.target, total):
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


def _sample_ground(f: SampledFunction) -> list[tuple[PointN, Fraction, tuple[int, ...]]]:
    """The non-origin samples of f as (point, value, integer row), in domain order."""
    return [(a, v, row) for (a, v), row in zip(f.items(), f._rows) if any(row)]


def _min_cover(ground: list[tuple[PointN, Fraction, tuple[int, ...]]], demands: Sequence[tuple[int, ...]],
               targets: Sequence[PointN]) -> tuple[list[Fraction], Callable[[int], CoverCertificate]]:
    """Exact cheapest covers of several targets by multisets of ground points.

    ``ground`` holds distinct nonzero (point, value, integer row) triples in
    lexicographic order of their points; ``demands[i]`` is ``targets[i]`` on
    the rows' scale rounded up (a sum of rows reaches one exactly when it
    reaches the other), and must be coverable.  Values are scaled to
    integers, and one table holds, for every residual demand r reachable
    from a demand, the least (value(e) + cost of clamp(r - e), index of e)
    over the ground points e that touch a positive coordinate of r, looked
    up by the support mask of r.  Every such move lowers r, so the table is
    filled in lexicographic order of the residuals with each lookup already
    solved.  The least cheapest cover of r is its least cheapest first part
    followed by the least cheapest cover of what that part leaves, so the
    chain of chosen first parts is the cheapest cover with the
    lexicographically least part sequence; ground touching no demand never
    moves.  Exploring costs one step per residual and touching ground
    point, and past ``COVER_BUDGET`` steps CoverBudgetError is raised.

    Returns the cost of every target and a function building the covering
    certificate of the i-th target.
    """
    den, values = scale_to_integers(v for _, v, _ in ground)
    points = [row for _, _, row in ground]
    masks = [sum(1 << j for j, c in enumerate(p) if c) for p in points]
    touching: dict[int, list[int]] = {}  # support mask of a residual -> the ground indices touching it

    def moves(r):
        """The ground indices touching a positive coordinate of r, and what each leaves."""
        need = sum(1 << j for j, x in enumerate(r) if x)
        if need not in touching:
            touching[need] = [k for k, m in enumerate(masks) if m & need]
        ks = touching[need]
        return ks, (tuple(x - c if x > c else 0 for x, c in zip(r, points[k])) for k in ks)

    reachable = set(demands)
    stack = list(reachable)
    steps = 0
    while stack:
        ks, lefts = moves(stack.pop())
        steps += len(ks)
        if steps > COVER_BUDGET:
            raise CoverBudgetError(f"the cover search exceeds its budget of {COVER_BUDGET} residual x ground steps")
        for left in lefts:
            if left not in reachable:
                reachable.add(left)
                stack.append(left)
    best: dict[tuple[int, ...], tuple[int, int]] = {}
    for r in sorted(reachable):
        if any(r):
            ks, lefts = moves(r)
            if not ks:
                raise AssertionError("no cover exists; ground set construction is broken")
            best[r] = min([(values[k] + best[left][0], k) for k, left in zip(ks, lefts)])
        else:
            best[r] = (0, -1)
    costs = [Fraction(best[d][0], den) for d in demands]

    def certificate(i: int) -> CoverCertificate:
        chain = []
        r = demands[i]
        while any(r):
            k = best[r][1]
            chain.append(k)
            r = tuple(x - c if x > c else 0 for x, c in zip(r, points[k]))
        parts = tuple((ground[k][0], len(list(run))) for k, run in groupby(chain))
        return CoverCertificate(targets[i], parts, costs[i])

    return costs, certificate


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
    extension = None
    for y in probes:  # a bad first probe is reported before a bad c, and a bad c before later probes
        if y.dim != f.dim:
            raise DimensionMismatchError(f"probe dimension {y.dim} != {f.dim}")
        extension = extension or AxisExtendedFunction.for_envelope(f, c)
    tables: dict[tuple[PointN, ...], list[int]] = {}  # the axis points probes need -> those probes
    for i, y in enumerate(probes):
        axes = tuple(axis_vector(j, y.coords[j - 1], f.dim) for j in extension.rules if y.coords[j - 1])
        tables.setdefault(axes, []).append(i)
    results: list = [None] * len(probes)
    for axes, members in tables.items():
        ground = _sample_ground(f) + [(a, extension.c, _ceil_row(f, a.coords)) for a in axes]
        ground.sort(key=lambda item: sort_key(item[0]))
        targets = [probes[i] for i in members]
        costs, certificate = _min_cover(ground, [_ceil_row(f, y.coords) for y in targets], targets)
        for k, i in enumerate(members):
            results[i] = costs[k], certificate(k)
    return results


def subadditive_envelope(f: SampledFunction, y: PointN, c=Fraction(1)) -> tuple[Fraction, CoverCertificate]:
    """Greatest isotone subadditive minorant of the samples, at y: ``subadditive_envelopes``
    for the one probe y, the value with its cheapest covering certificate."""
    return subadditive_envelopes(f, [y], c)[0]
