"""The paper's characterization as checks of one module's verdict against another's.

(a) A function f sampled on the distance grid of some factor spaces that
    is metric-preserving by ``metric_preserving_verdict`` (isotone,
    amenable, subadditive) makes their product through ``ProductSpec`` a
    metric: it passes ``verify_metric`` and ``is_distance_increasing``,
    and ``extract_product_function`` gives f back.
(b) The sup-continuation is the least isotone extension of the samples,
    so at every probe it lies at or below the amenable isotone
    continuation, which also extends them isotonically.
(c) The subadditive envelope is the greatest isotone subadditive
    minorant of the samples: at or below f on every sample, and equal to
    f on all of them exactly when ``is_subadditive`` holds.
(d) The modulus table of every grid function satisfies the difference
    bound |w(x) - w(y)| <= w(|x - y|) on the lattice.
(e) A grid function g with g(0) = 0 is its own lattice modulus exactly
    when the sampled function of its lattice points is isotone and
    subadditive: the first moduli of continuity, on the lattice.

Random isotone functions of n = 1-3 with coordinates and probes of
denominators 1-6, lattice functions of n = 1-2 with steps 1, 1/2 and
1/3, and products of one to three spaces of two or three points on the
line or with random distances; hypothesis runs derandomized with a fixed
number of examples, about 4 s in all, (a) about 1 s of it and (d) and (e)
about 1 s.
"""

import itertools
import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from isoprod.continuation import amenable_isotone_continuation, subadditive_envelopes, sup_continuation
from isoprod.fixtures import line_space, random_metric_space
from isoprod.metric import (
    ProductSpec,
    extract_product_function,
    is_distance_increasing,
    metric_preserving_verdict,
    product_metric,
    verify_metric,
)
from isoprod.modulus import GridFunction, difference_bound_holds, is_fixed_point, modulus_table
from isoprod.points import PointN, axis_vector, leq
from isoprod.sampled import SampledFunction, is_isotone, is_subadditive

COORDS = (F(0), F(0), F(1), F(1, 2), F(2, 3), F(3, 4), F(6, 5), F(4, 3), F(3, 2), F(2))
PROBE_COORDS = COORDS + (F(1, 6), F(5, 6), F(7, 4), F(5, 2))
VALUES = (F(0), F(1, 2), F(1), F(3, 2), F(2), F(5, 3), F(7, 6))


@st.composite
def isotone_functions(draw, amenable=False):
    """Samples whose values are raised to the maximum over their lower cone; an amenable
    function has the origin at value 0 and positive values elsewhere."""
    dim = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.sampled_from(COORDS)] * dim).map(PointN),
                        min_size=1, max_size=6 - dim, unique=True))
    raw = {p: draw(st.sampled_from(VALUES)) for p in pts}
    if amenable:
        raw = {p: v or F(1) for p, v in raw.items()}
        raw[PointN((F(0),) * dim)] = F(0)
    return SampledFunction({p: max(v for q, v in raw.items() if leq(q, p)) for p in raw})


@st.composite
def factors_and_grid_functions(draw):
    """Factor spaces and an isotone f on their distance grid, zero at the origin: raised to the
    maximum over its lower cone, or min(cap, w . t) or max(w_i t_i), which preserve metrics when
    no weight is zero, or (w . t) ** 2, which is seldom subadditive."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            factors.append(line_space(draw(st.lists(st.sampled_from(COORDS[1:]), min_size=2, max_size=3, unique=True))))
        else:
            factors.append(random_metric_space(random.Random(draw(st.integers(0, 10 ** 6))), max_points=3))
    grid = list(itertools.product(*(sp.distance_set() for sp in factors)))
    weights = [draw(st.sampled_from([F(0), F(1), F(1, 2), F(2)])) for _ in factors]
    kind = draw(st.sampled_from(["lower cone", "capped sum", "max", "square"]))
    if kind == "capped sum":
        cap = draw(st.sampled_from([F(1, 2), F(1), F(3, 2), F(5)]))
        values = {t: min(cap, sum(w * c for w, c in zip(weights, t))) for t in grid}
    elif kind == "max":
        values = {t: max(w * c for w, c in zip(weights, t)) for t in grid}
    elif kind == "square":
        values = {t: sum(w * c for w, c in zip(weights, t)) ** 2 for t in grid}
    else:
        raw = {t: draw(st.sampled_from(VALUES[1:] if draw(st.integers(0, 3)) else VALUES)) for t in grid}
        values = {t: max(v for u, v in raw.items() if all(map(F.__le__, u, t))) for t in grid}
    values[grid[0]] = F(0)  # the origin: every distance set starts at 0
    return tuple(factors), SampledFunction({PointN(t): v for t, v in values.items()})


def test_metric_preserving_samples_make_product_metrics():
    seen = set()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(factors_and_grid_functions())
    def check(case):
        factors, f = case
        preserving, report = metric_preserving_verdict(f)
        seen.add((preserving, report.amenable))
        if preserving:
            _, matrix = product_metric(ProductSpec(factors, f))
            assert verify_metric(matrix) == (True, None)
            assert is_distance_increasing(matrix, factors) == (True, None)
            assert extract_product_function(matrix, factors) == f

    check()
    assert seen == {(True, True), (False, True), (False, False)}


@st.composite
def amenable_functions_with_probes(draw):
    f = draw(isotone_functions(amenable=True))
    probes = draw(st.lists(st.tuples(*[st.sampled_from(PROBE_COORDS)] * f.dim).map(PointN), max_size=4))
    positive = st.sampled_from([t for t in PROBE_COORDS if t > 0])
    axes = draw(st.lists(st.builds(axis_vector, st.integers(1, f.dim), positive, st.just(f.dim)), max_size=2))
    return f, probes + axes + list(f.domain)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(amenable_functions_with_probes())
def test_sup_continuation_is_below_the_amenable_continuation(case):
    f, probes = case
    for y in probes:
        assert sup_continuation(f, y) <= amenable_isotone_continuation(f, y)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(isotone_functions())
def test_envelope_meets_the_samples_exactly_when_subadditive(f):
    envelope = [value for value, _ in subadditive_envelopes(f, f.domain)]
    assert all(e <= f.value(a) for e, a in zip(envelope, f.domain))
    assert is_subadditive(f)[0] == all(e == f.value(a) for e, a in zip(envelope, f.domain))


@st.composite
def lattice_functions(draw, zero_at_origin=False):
    """A grid function of n = 1-2 with values from VALUES, raised to the maximum over their
    lower cone in most examples, so isotone functions and fixed points are common."""
    n = draw(st.integers(1, 2))
    cells = draw(st.integers(1, {1: 6, 2: 3}[n]))
    step = draw(st.sampled_from([F(1), F(1, 2), F(1, 3)]))
    idxs = list(itertools.product(range(cells + 1), repeat=n))
    values = {idx: draw(st.sampled_from(VALUES)) for idx in idxs}
    if draw(st.integers(0, 3)):
        values = {i: max(v for j, v in values.items() if all(map(int.__le__, j, i))) for i in idxs}
    if zero_at_origin:
        values[(0,) * n] = F(0)
    return GridFunction(n, cells * step, step, values)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(lattice_functions())
def test_modulus_table_meets_the_difference_bound(g):
    assert difference_bound_holds(modulus_table(g)) == (True, None)


def test_fixed_points_are_the_isotone_subadditive_lattice_functions():
    seen = set()

    @settings(derandomize=True, max_examples=250, deadline=None, database=None)
    @given(lattice_functions(zero_at_origin=True))
    def check(g):
        f = SampledFunction(g.items())
        fixed = is_fixed_point(g)[0]
        assert fixed == (is_isotone(f)[0] and is_subadditive(f)[0])
        seen.add(fixed)

    check()
    assert seen == {True, False}
