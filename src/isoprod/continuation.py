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
after each part (``_min_cover``), filled bottom-up without recursion;
``sampled.is_subadditive`` asks one such table for every sample at once.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import groupby
from typing import Callable, Mapping, Sequence

from .errors import DimensionMismatchError, NotAmenableError
from .points import PointN, Record, axis_vector, leq, origin, rat, scale_to_integers, sort_key
from .sampled import SampledFunction, is_amenable, projection_support, require_isotone


def lower_cone_max(f: SampledFunction, y: PointN) -> Fraction:
    """The maximum of f over the sample points below y; the empty maximum is 0."""
    if y.dim != f.dim:
        raise DimensionMismatchError(f"probe dimension {y.dim} != {f.dim}")
    best = Fraction(0)
    for a, v in f.items():
        if leq(a, y) and v > best:
            best = v
    return best


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
        caps = {j: Fraction(0) for j in range(1, self.base.dim + 1)}
        for p in self.base.domain:
            for j, coord in enumerate(p.coords, start=1):
                if coord > caps[j]:
                    caps[j] = coord
        return caps

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
        cap = self.axis_caps[j]
        t_eff = min(t, cap)
        candidates = [v for p, v in self.base.items() if p.coords[j - 1] >= t_eff]
        if not candidates:
            raise ValueError(f"no sample above the axis point {t} on axis {j}")
        return min(candidates)

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


def _min_cover(
    ground: list[tuple[PointN, Fraction]], targets: Sequence[PointN]
) -> tuple[list[Fraction], Callable[[int], CoverCertificate]]:
    """Exact cheapest covers of several targets by multisets of ground points.

    ``ground`` holds distinct nonzero (point, value) pairs in lexicographic
    order of their points, and every target must be coverable by them.
    Coordinates and values are scaled to integers, and one table holds,
    for every residual demand r reachable from a target, the least
    (value(e) + cost of clamp(r - e), index of e) over the ground points e
    that touch a positive coordinate of r.  Every such move lowers r, so
    the table is filled in lexicographic order of the residuals with each
    lookup already solved.  The least cheapest cover of r is its least
    cheapest first part followed by the least cheapest cover of what that
    part leaves, so the chain of chosen first parts is the cheapest cover
    with the lexicographically least part sequence.

    Returns the cost of every target and a function building the covering
    certificate of the i-th target.
    """
    n = targets[0].dim
    _, coords = scale_to_integers(
        [co for p, _ in ground for co in p.coords] + [co for t in targets for co in t.coords]
    )
    den, values = scale_to_integers(v for _, v in ground)
    points = [tuple(coords[k:k + n]) for k in range(0, n * len(ground), n)]
    demands = [tuple(coords[k:k + n]) for k in range(n * len(ground), len(coords), n)]
    masks = [sum(1 << j for j, c in enumerate(p) if c) for p in points]

    def moves(r):
        """Each ground index touching a positive coordinate of r, with what it leaves."""
        need = sum(1 << j for j, x in enumerate(r) if x)
        for k, p in enumerate(points):
            if masks[k] & need:
                yield k, tuple(x - c if x > c else 0 for x, c in zip(r, p))

    reachable = set(demands)
    stack = list(reachable)
    while stack:
        for _, left in moves(stack.pop()):
            if left not in reachable:
                reachable.add(left)
                stack.append(left)
    best: dict[tuple[int, ...], tuple[int, int]] = {}
    for r in sorted(reachable):
        if any(r):
            options = [(values[k] + best[left][0], k) for k, left in moves(r)]
            if not options:
                raise AssertionError("no cover exists; ground set construction is broken")
            best[r] = min(options)
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


def subadditive_envelope(
    f: SampledFunction, y: PointN, c=Fraction(1)
) -> tuple[Fraction, CoverCertificate]:
    """Greatest isotone subadditive minorant of the samples, at y.

    The exact minimum, over finite multisets of sample points whose sum
    dominates y, of the total sampled value; the infimum is attained
    because only parts touching a still uncovered coordinate count.
    Axes carrying no positive sample are first extended by axis points
    of constant value c > 0 so a cover always exists.  Returns the value
    and the cheapest covering certificate (lexicographically least on
    ties), read from the cover table of ``_min_cover`` for this one
    target.
    """
    if y.dim != f.dim:
        raise DimensionMismatchError(f"probe dimension {y.dim} != {f.dim}")
    extension = AxisExtendedFunction.for_envelope(f, c)
    if y.is_origin():
        return Fraction(0), CoverCertificate(y, (), Fraction(0))

    ground: list[tuple[PointN, Fraction]] = []
    for a, v in f.items():
        if a.is_origin():
            continue
        if any(aj > 0 and yj > 0 for aj, yj in zip(a.coords, y.coords)):
            ground.append((a, v))
    for j in extension.rules:
        t = y.coords[j - 1]
        if t > 0:
            ground.append((axis_vector(j, t, f.dim), extension.axis_value(j, t)))
    ground.sort(key=lambda item: sort_key(item[0]))

    costs, certificate = _min_cover(ground, [y])
    return costs[0], certificate(0)
