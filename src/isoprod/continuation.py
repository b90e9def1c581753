"""Continuations of sampled functions to the whole orthant.

Three constructions, all exact:

* the sup-continuation, the least isotone extension of an isotone
  sample set;
* the amenable isotone continuation, which first extends along the
  coordinate axes (identity rule on axes with no positive samples,
  upper-cone infimum on the rest) and then takes lower-cone sups;
* the subadditive envelope, the greatest isotone subadditive function
  dominated by the samples, computed as an exact minimum-cost covering
  problem with integer multiplicities and returned together with a
  covering certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional

from .errors import (
    DimensionMismatchError,
    DominanceViolationError,
    ExtensionMismatchError,
    NotAmenableError,
)
from .points import PointN, axis_vector, leq, origin, rat, scale_to_integers, sort_key
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


def minimality_check(
    f: SampledFunction,
    candidate: Callable[[PointN], object],
    probes: Iterable[PointN],
) -> bool:
    """Check that an isotone extension dominates the sup-continuation.

    The candidate must agree with f on the sample set; any isotone
    extension is then at least the sup-continuation at every probe.
    """
    require_isotone(f)
    for a, v in f.items():
        if rat(candidate(a)) != v:
            raise ExtensionMismatchError(f"candidate({a}) != f({a})")
    return all(rat(candidate(p)) >= sup_continuation(f, p) for p in probes)


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


@dataclass(frozen=True)
class AxisExtendedFunction:
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

    @property
    def zero_axes(self) -> set[int]:
        return set(range(1, self.base.dim + 1)) - projection_support(self.base)

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


@dataclass(frozen=True)
class CoverCertificate:
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


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _min_cover(
    elements: list[tuple[tuple[int, ...], int, int]],
    target: tuple[int, ...],
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Exact min-cost cover of an integer target by integer ground points.

    ``elements`` holds (coords, value, index) triples sorted by coords;
    returns (cost, ((index, multiplicity), ...)) for the cheapest cover,
    ties broken toward the lexicographically least part multiset.
    Memoized search over (element index, clamped residual demand):
    clamping residuals at zero collapses equivalent subproblems, which
    keeps equal-cost plateaus (many optimal covers) from exploding, and
    a suffix coverage mask kills branches that can no longer touch a
    still-uncovered coordinate.
    """
    n = len(target)
    count = len(elements)
    suffix_mask = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        mask = suffix_mask[i + 1]
        for j in range(n):
            if elements[i][0][j] > 0:
                mask |= 1 << j
        suffix_mask[i] = mask

    # memo value: (cost, parts, chosen) for the best cover of the residual
    # by elements i.., or None when none exists
    memo: dict[tuple[int, tuple[int, ...]], Optional[tuple]] = {}

    def solve(i: int, residual: tuple[int, ...]) -> Optional[tuple]:
        if not any(residual):
            return 0, (), ()
        if i == count:
            return None
        key = (i, residual)
        if key in memo:
            return memo[key]
        need = 0
        for j in range(n):
            if residual[j] > 0:
                need |= 1 << j
        if need & ~suffix_mask[i]:
            memo[key] = None
            return None
        coords, value, index = elements[i]
        bound = 0
        for j in range(n):
            if coords[j] > 0 and residual[j] > 0:
                bound = max(bound, _ceil_div(residual[j], coords[j]))
        best: Optional[tuple] = None
        for mult in range(bound + 1):
            nxt = tuple(max(0, r - mult * c) for r, c in zip(residual, coords))
            sub = solve(i + 1, nxt)
            if sub is None:
                continue
            cost = mult * value + sub[0]
            parts = (coords,) * mult + sub[1]
            chosen = (((index, mult),) if mult else ()) + sub[2]
            if best is None or (cost, parts) < (best[0], best[1]):
                best = (cost, parts, chosen)
        memo[key] = best
        return best

    answer = solve(0, target)
    if answer is None:
        raise AssertionError("no cover exists; ground set construction is broken")
    return answer[0], answer[2]


def subadditive_envelope(
    f: SampledFunction, y: PointN, c=Fraction(1)
) -> tuple[Fraction, CoverCertificate]:
    """Greatest isotone subadditive minorant of the samples, at y.

    The exact minimum, over finite multisets of sample points whose sum
    dominates y, of the total sampled value; the infimum is attained
    because multiplicities are bounded.  Axes carrying no positive
    sample are first extended by axis points of constant value c > 0 so
    a cover always exists.  Returns the value and the cheapest covering
    certificate (lexicographically least on ties).
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

    n = f.dim
    _, coords = scale_to_integers([co for p, _ in ground for co in p.coords] + list(y.coords))
    _, values = scale_to_integers(v for _, v in ground)
    elements = [(tuple(coords[k * n:(k + 1) * n]), v, k) for k, v in enumerate(values)]
    target = tuple(coords[-n:])

    _, chosen = _min_cover(elements, target)
    parts = tuple((ground[idx][0], mult) for idx, mult in chosen)
    cost = sum((ground[idx][1] * mult for idx, mult in chosen), Fraction(0))
    return cost, CoverCertificate(y, parts, cost)


def envelope_maximality_check(
    f: SampledFunction,
    candidate: Callable[[PointN], object],
    probes: Iterable[PointN],
    c=Fraction(1),
) -> bool:
    """Check that an isotone subadditive minorant stays below the envelope.

    The candidate must be dominated by f on the sample set; isotonicity
    and subadditivity are spot-checked on the probe pairs.
    """
    for a, v in f.items():
        if rat(candidate(a)) > v:
            raise DominanceViolationError(f"candidate({a}) > f({a})")
    probe_list = sorted(set(probes), key=sort_key)
    for p in probe_list:
        fp = rat(candidate(p))
        for q in probe_list:
            fq = rat(candidate(q))
            if leq(p, q) and fp > fq:
                raise ValueError(f"candidate is not isotone on probes {p}, {q}")
            if rat(candidate(p + q)) > fp + fq:
                raise ValueError(f"candidate is not subadditive on probes {p}, {q}")
    return all(
        rat(candidate(p)) <= subadditive_envelope(f, p, c)[0] for p in probe_list
    )
