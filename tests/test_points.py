import itertools
import math
from fractions import Fraction as F
from math import lcm
from operator import le

import pytest
from hypothesis import given, strategies as st

from isoprod.errors import DimensionMismatchError, OutOfRangeError
from isoprod.points import (
    DENOMINATOR_DIGITS_CAP,
    PointN,
    axis_vector,
    isotone_by_unit_steps,
    leq,
    origin,
    point,
    scale_to_integers,
)

rationals = st.builds(F, st.integers(0, 12), st.integers(1, 4))


@st.composite
def point_pairs(draw, dim_max=3):
    dim = draw(st.integers(1, dim_max))
    coords = st.lists(rationals, min_size=dim, max_size=dim)
    return point(*draw(coords)), point(*draw(coords))


@st.composite
def point_triples(draw, dim_max=3):
    dim = draw(st.integers(1, dim_max))
    coords = st.lists(rationals, min_size=dim, max_size=dim)
    return tuple(point(*draw(coords)) for _ in range(3))


def test_compare_examples():
    # below, equal, incomparable and above, each told apart by leq both ways
    assert leq(point(0, 0), point(1, 2)) and not leq(point(1, 2), point(0, 0))
    assert leq(point(1, 2), point(1, 2))
    assert not leq(point(1, 0), point(0, 1)) and not leq(point(0, 1), point(1, 0))
    assert leq(point(1, 2), point(2, 2)) and not leq(point(2, 2), point(1, 2))
    # lower and upper cones of a finite set
    a = {point(1, 1), point(2, 0), point(0, 3)}
    assert {x for x in a if leq(x, point(1, 1))} == {point(1, 1)}
    assert {x for x in a if leq(point(0, 0), x)} == a


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        leq(point(1), point(1, 2))
    with pytest.raises(DimensionMismatchError):
        point(1) + point(1, 2)


def test_point_validation():
    with pytest.raises(ValueError):
        point("-1/2", 0)
    with pytest.raises(ValueError):
        PointN(())
    assert point("1/2").coords == (F(1, 2),)


def test_axis_vector_examples():
    assert axis_vector(2, F(1, 3), 3) == point(0, "1/3", 0)
    assert axis_vector(1, 5, 1) == point(5)
    with pytest.raises(ValueError):
        axis_vector(1, 0, 2)
    with pytest.raises(IndexError):
        axis_vector(4, 1, 3)


def test_point_arithmetic():
    assert point(1, 2) + point(3, "1/2") == point(4, "5/2")
    assert origin(3).is_origin()
    assert str(point("1/2", 0)) == "(1/2, 0)"


@given(point_pairs())
def test_partial_order_reflexive_antisymmetric(pair):
    x, y = pair
    assert leq(x, x)
    if leq(x, y) and leq(y, x):
        assert x == y


@given(point_triples())
def test_partial_order_transitive(triple):
    x, y, z = triple
    if leq(x, y) and leq(y, z):
        assert leq(x, z)


@given(point_pairs())
def test_dominance_identity(pair):
    # x <= y + |x - y|, the workhorse inequality behind the difference bound;
    # adding a point never moves down
    x, y = pair
    gap = point(*(abs(a - b) for a, b in zip(x.coords, y.coords)))
    assert leq(x, y + gap) and leq(y, x + gap)
    assert leq(x, x + y) and x + y == y + x


@given(point_triples())
def test_lower_cones_nest(triple):
    a, b, probe = triple
    if leq(a, b):
        pool = {probe, a, b}
        inner = {x for x in pool if leq(x, a)}
        outer = {x for x in pool if leq(x, b)}
        assert inner <= outer


@given(st.lists(st.one_of(st.builds(F, st.integers(-50, 50), st.integers(1, 36)), st.integers(-9, 9))))
def test_scale_to_integers(values):
    den, ints = scale_to_integers(values)
    assert den == lcm(1, *(F(v).denominator for v in values))
    assert len(ints) == len(values)
    for k, v in enumerate(values):
        assert type(ints[k]) is int and F(ints[k], den) == v


def test_scale_to_integers_refuses_a_denominator_past_the_cap():
    # the cap is on the digits of the lcm: 10 ** cap - 1, a multiple of 3, has cap digits, and with
    # a half among the values the lcm is twice that, with one digit more
    den = 10 ** DENOMINATOR_DIGITS_CAP - 1
    assert scale_to_integers([F(1, den), F(2), F(1, 3)]) == (den, [1, 2 * den, den // 3])
    with pytest.raises(OutOfRangeError, match=f"^the common denominator exceeds the cap of {DENOMINATOR_DIGITS_CAP} digits$"):
        scale_to_integers([F(1, den), F(1, 2)])


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3).flatmap(
    lambda sizes: st.tuples(st.just(sizes), st.lists(st.integers(0, 3), min_size=math.prod(sizes), max_size=math.prod(sizes)))))
def test_isotone_by_unit_steps_is_the_coordinatewise_order(case):
    # a flat mixed-radix grid, most significant axis first, against every ordered pair of indices
    sizes, ints = case
    indices = list(itertools.product(*map(range, sizes)))
    ordered = all(a <= b for i, a in zip(indices, ints) for j, b in zip(indices, ints) if all(map(le, i, j)))
    assert isotone_by_unit_steps(ints, sizes) == ordered
