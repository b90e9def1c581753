from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, strategies as st

from isoprod.errors import DimensionMismatchError
from isoprod.points import (
    Comparison,
    Cone,
    PointN,
    abs_diff,
    axis_vector,
    compare,
    cone_select,
    leq,
    origin,
    point,
    projection,
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
    assert compare(point(0, 0), point(1, 2)) is Comparison.LESS_OR_EQUAL
    assert compare(point(1, 2), point(1, 2)) is Comparison.EQUAL
    assert compare(point(1, 0), point(0, 1)) is Comparison.INCOMPARABLE
    assert compare(point(2, 2), point(1, 2)) is Comparison.GREATER_OR_EQUAL


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        compare(point(1), point(1, 2))


def test_point_validation():
    with pytest.raises(ValueError):
        point("-1/2", 0)
    with pytest.raises(ValueError):
        PointN(())
    assert point("1/2").coords == (F(1, 2),)


def test_abs_diff_examples():
    assert abs_diff(point(3, 1), point(1, 4)) == point(2, 3)
    assert abs_diff(point("2/3"), point("2/3")) == point(0)
    assert abs_diff(point(0, 5), point(2, 0)) == point(2, 5)


def test_axis_vector_examples():
    assert axis_vector(2, F(1, 3), 3) == point(0, "1/3", 0)
    assert axis_vector(1, 5, 1) == point(5)
    with pytest.raises(ValueError):
        axis_vector(1, 0, 2)
    with pytest.raises(IndexError):
        axis_vector(4, 1, 3)


def test_cone_select_examples():
    a = {point(1, 1), point(2, 0), point(0, 3)}
    assert cone_select(a, point(1, 1), Cone.LOWER) == {point(1, 1)}
    b = {point(1, 1), point(2, 2)}
    assert cone_select(b, point(0, 0), Cone.UPPER) == b
    assert cone_select({point(2, 0)}, point(1, 1), Cone.LOWER) == set()


def test_projection_examples():
    assert projection(point(4, 7), 2) == 7
    assert projection(point(0), 1) == 0
    with pytest.raises(IndexError):
        projection(point(4, 7), 3)


def test_point_arithmetic():
    assert point(1, 2) + point(3, "1/2") == point(4, "5/2")
    assert point(1, 2).scale("3/2") == point("3/2", 3)
    assert origin(3).is_origin()
    assert str(point("1/2", 0)) == "(1/2, 0)"


@given(point_pairs())
def test_partial_order_reflexive_antisymmetric(pair):
    x, y = pair
    assert compare(x, x) is Comparison.EQUAL
    if leq(x, y) and leq(y, x):
        assert x == y


@given(point_triples())
def test_partial_order_transitive(triple):
    x, y, z = triple
    if leq(x, y) and leq(y, z):
        assert leq(x, z)


@given(point_pairs())
def test_abs_diff_symmetric(pair):
    x, y = pair
    assert abs_diff(x, y) == abs_diff(y, x)


@given(point_pairs())
def test_dominance_identity(pair):
    # x <= y + |x - y|, the workhorse inequality behind the difference bound
    x, y = pair
    assert compare(x, y + abs_diff(x, y)) in (
        Comparison.LESS_OR_EQUAL,
        Comparison.EQUAL,
    )


@given(point_triples())
def test_lower_cones_nest(triple):
    a, b, probe = triple
    if leq(a, b):
        pool = {probe, a, b}
        inner = cone_select(pool, a, Cone.LOWER)
        outer = cone_select(pool, b, Cone.LOWER)
        assert inner <= outer


@given(st.lists(st.one_of(st.builds(F, st.integers(-50, 50), st.integers(1, 36)), st.integers(-9, 9))))
def test_scale_to_integers(values):
    den, ints = scale_to_integers(values)
    assert den == lcm(1, *(F(v).denominator for v in values))
    assert len(ints) == len(values)
    for k, v in enumerate(values):
        assert type(ints[k]) is int and F(ints[k], den) == v
