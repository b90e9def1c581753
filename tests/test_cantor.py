import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantor_helpers import TAU_LOWER, AmbiguousComparisonError, alternate, sign
from oracles import cantor_orbit_member, cantor_pair_census, cantor_split_pair, naive_three_point, scaled_cantor_endpoints
from isoprod.cantor import (
    Base3Expansion,
    SymbolicAffine,
    cantor_decompose,
    cantor_level_starts,
    in_cantor,
    in_scaled_cantor,
    rational_subspace_refutation,
    scaled_cantor_distance_witness,
    scaled_cantor_level_set,
    scaled_cantor_triple_refutation,
    three_point_search,
    to_base3,
    transcendental_embed,
)
from isoprod.errors import NonTriadicDenominatorError, OutOfRangeError, RationalInputError


def test_to_base3_examples():
    assert to_base3(F(1, 3)) == Base3Expansion((), (1,), ())
    assert to_base3(F(1, 2)) == Base3Expansion((), (), (1,))
    assert to_base3(4) == Base3Expansion((1, 1), (), ())
    assert to_base3(0) == Base3Expansion((), (), ())
    with pytest.raises(ValueError):
        to_base3(F(-1, 3))


def test_alternate_expansions():
    third = to_base3(F(1, 3))
    alt = alternate(third)
    assert alt == Base3Expansion((), (0,), (2,))
    assert alt.to_fraction() == F(1, 3)
    assert alternate(alt) == third
    nine = to_base3(9)
    alt9 = alternate(nine)
    assert alt9 == Base3Expansion((2, 2), (), (2,))
    assert alt9.to_fraction() == 9
    assert alternate(to_base3(F(1, 2))) is None
    assert alternate(to_base3(0)) is None


rationals = st.builds(F, st.integers(0, 400), st.integers(1, 60))


@given(rationals)
@settings(max_examples=500, deadline=None)
def test_base3_round_trip(value):
    assert to_base3(value).to_fraction() == value


def test_base3_round_trip_triadic():
    for k in range(0, 7):
        den = 3**k
        for num in range(0, den + 1):
            t = F(num, den)
            expansion = to_base3(t)
            assert expansion.to_fraction() == t
            assert not expansion.period
    rng = random.Random(12)
    for k in range(7, 13):
        den = 3**k
        for _ in range(50):
            t = F(rng.randint(0, 4 * den), den)
            expansion = to_base3(t)
            assert expansion.to_fraction() == t
            assert not expansion.period


def test_in_cantor_examples():
    assert in_cantor(F(1, 3))
    assert not in_cantor(F(1, 2))
    assert in_cantor(1)
    assert in_cantor(0)
    assert in_cantor(F(1, 4))  # 0.(02) repeating
    assert in_cantor(F(2, 3))
    assert not in_cantor(F(4, 3))
    assert not in_cantor(F(1, 6)) and not in_cantor(F(5, 6))


def test_in_scaled_cantor_examples():
    assert in_scaled_cantor(2)
    assert in_scaled_cantor(F(1, 3))
    assert not in_scaled_cantor(F(1, 6))
    assert in_scaled_cantor(9)
    assert in_scaled_cantor(0)
    assert not in_scaled_cantor(F(-1, 3))


@given(st.builds(F, st.integers(0, 200), st.integers(1, 40)))
@settings(max_examples=300, deadline=None)
def test_dilation_closure(value):
    assert in_scaled_cantor(value) == in_scaled_cantor(3 * value)


def _value_of_digits(integer, pre, period):
    """The rational written integer.pre(period) in base 3."""
    value = F(0)
    for d in integer:
        value = 3 * value + d
    scale = F(1)
    for d in pre:
        scale /= 3
        value += d * scale
    if period:
        repeat = 0
        for d in period:
            repeat = 3 * repeat + d
        value += F(repeat, 3 ** len(period) - 1) * scale
    return value


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


def test_membership_agrees_with_orbit_oracle():
    rng = random.Random(20260318)
    values = []
    for k in range(0, 9):
        values += [F(rng.randint(0, 3 ** (k + 2)), 3**k) for _ in range(60)]
    for _ in range(600):
        # members from digits 0 and 2, non-members mostly from digits with a 1
        allowed = (0, 2) if rng.random() < 0.6 else (0, 1, 2)
        integer, pre, period = (
            [rng.choice(allowed) for _ in range(rng.randint(0, n))] for n in (4, 5, 9)
        )
        value = _value_of_digits(integer, pre, period)
        values += [value, -value]
    values += [F(rng.randint(0, 10**6)) for _ in range(300)]
    values += [F(int("1" + "".join(rng.choice("02") for _ in range(12)), 3))]
    values += [F(-rng.randint(1, 10**4), rng.randint(1, 500)) for _ in range(100)]
    primes = _primes_below(100_000)
    for p in rng.sample(primes, 120) + [2, 5, 7, 13, 41, 61, 73, 99_991]:
        values += [F(k, p) for k in rng.sample(range(0, 3 * p), min(3 * p, 8))]
    values += [F(1, 4), F(3, 4), F(1, 10), F(3, 10), F(9, 4), F(1, 3), F(2, 3), F(1), F(3)]
    members = 0
    for t in values:
        expected = cantor_orbit_member(t)
        members += expected
        assert in_scaled_cantor(t) == expected, t
        assert in_cantor(t) == (t <= 1 and expected), t
    assert members > 400 and len(values) - members > 400


triadic_or_not = st.builds(
    lambda num, unit, threes: F(num, unit * 3**threes),
    st.integers(0, 10**6),
    st.integers(1, 400),
    st.integers(0, 8),
)


@given(triadic_or_not)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_to_base3_preperiod_is_the_three_adic_valuation_and_period_is_minimal(value):
    expansion = to_base3(value)
    den, threes = value.denominator, 0
    while den % 3 == 0:
        den //= 3
        threes += 1
    assert len(expansion.preperiod) == threes
    period = expansion.period
    assert (len(period) == 0) == (den == 1)
    for shorter in range(1, len(period)):
        if len(period) % shorter == 0:
            assert period != period[shorter:] + period[:shorter]
    assert expansion.to_fraction() == value


def test_long_period_non_members_stop_early():
    # 1/10000019 has period 5,000,009; 3 is a primitive root of the other
    # primes, so each k/p has period p - 1
    cases = [(in_cantor, F(1, 10000019))]
    cases += [(in_scaled_cantor, F(k, p)) for k, p in ((1, 300007), (5, 300017), (2, 300043))]
    for member, t in cases:
        started = time.perf_counter()
        assert not member(t)
        assert time.perf_counter() - started < 0.5, t


def test_cantor_decompose_examples():
    assert cantor_decompose(0) == (0, 0)
    assert cantor_decompose(1) == (1, 0)
    x, y = cantor_decompose(F(1, 3))
    assert x - y == F(1, 3) and in_cantor(x) and in_cantor(y)
    with pytest.raises(OutOfRangeError):
        cantor_decompose(F(4, 3))
    with pytest.raises(NonTriadicDenominatorError):
        cantor_decompose(F(1, 2))


def test_cantor_decompose_exhaustive_level_4():
    for num in range(0, 82):
        t = F(num, 81)
        x, y = cantor_decompose(t)
        assert x - y == t
        assert in_cantor(x) and in_cantor(y)


def test_cantor_decompose_deterministic():
    a = cantor_decompose(F(7, 27))
    b = cantor_decompose(F(7, 27))
    assert a == b


def test_cantor_decompose_is_the_digit_split_pair():
    # every triadic t in (0, 1) with denominator up to 3^7, 2,186 values, in about 0.5 s: membership
    # and x - y = t alone would pass any valid pair, so the pair itself is pinned; a t above 1/3
    # tripled is scaled back into (0, 1] and its witness is the pair tripled
    for num in range(1, 3**7):
        t = F(num, 3**7)
        pair = cantor_split_pair(t)
        assert cantor_decompose(t) == pair == scaled_cantor_distance_witness(t), t
        if 3 * t > 1:
            assert scaled_cantor_distance_witness(3 * t) == (3 * pair[0], 3 * pair[1]), t


def test_scaled_cantor_distance_witness():
    for t in (F(5, 3), F(0), F(9), F(26, 9), F(100)):
        x, y = scaled_cantor_distance_witness(t)
        assert x - y == t
        assert in_scaled_cantor(x) and in_scaled_cantor(y)
    with pytest.raises(NonTriadicDenominatorError):
        scaled_cantor_distance_witness(F(1, 2))
    with pytest.raises(OutOfRangeError):
        scaled_cantor_distance_witness(F(-1, 3))


def test_three_point_search_examples():
    a, b = F(2, 7), F(5, 7)
    assert three_point_search([0, a, a + b], a, b) == (0, a, a + b)
    assert three_point_search([0, 1, 2], 1, 1) == (0, 1, 2)
    assert three_point_search([0, 1, 5], 1, 3) is None
    with pytest.raises(ValueError):
        three_point_search([0, 1], 0, 1)


def test_three_point_search_level_5_refutation_set():
    level_set = scaled_cantor_level_set(5)
    assert three_point_search(level_set, F(1, 3), F(1, 6)) is None
    found = three_point_search(level_set, F(1, 3), F(1, 3))
    assert found == (0, F(1, 3), F(2, 3))


def test_three_point_search_agrees_with_naive_oracle():
    rng = random.Random(61)
    for _ in range(40):
        values = sorted({F(rng.randint(0, 30), 6) for _ in range(rng.randint(2, 12))})
        a = F(rng.randint(1, 8), 6)
        b = F(rng.randint(1, 8), 6)
        fast = three_point_search(values, a, b)
        slow = naive_three_point(values, a, b)
        assert (fast is None) == (slow is None)
        if fast is not None:
            x1, x2, x3 = fast
            assert abs(x1 - x2) == a and abs(x2 - x3) == b and abs(x1 - x3) == a + b


def test_cantor_level_starts():
    assert cantor_level_starts(1) == [0, 2]
    assert cantor_level_starts(2) == [0, 2, 6, 8]
    assert len(cantor_level_starts(8)) == 256


def test_triple_refutation_report():
    report = scaled_cantor_triple_refutation(6)
    assert report.ok and report.gap_holds and not report.stray_pairs
    assert len(report.combos) == 6
    assert all(c.pair_count == 1 for c in report.combos)
    limit_pairs = {(c.x_star, c.y_star) for c in report.combos}
    third, two_thirds = F(1, 3), F(2, 3)
    assert limit_pairs == {
        (F(0), third), (third, two_thirds), (two_thirds, F(1)),
        (third, F(0)), (two_thirds, third), (F(1), two_thirds),
    }
    rejected = {str(v) for v, _ in report.candidate_rejections}
    assert rejected == {"-1/6", "1/6", "1/2", "5/6", "7/6"}
    jsonable = report.to_jsonable()
    assert jsonable["ok"] and len(jsonable["combos"]) == 6
    with pytest.raises(ValueError):
        scaled_cantor_triple_refutation(1)


def test_triple_refutation_agrees_with_the_pair_census():
    # the census scans all 4^k interval pairs; levels 2-8 take about 0.02 s
    for level in range(2, 9):
        report = scaled_cantor_triple_refutation(level)
        hugging, strays = cantor_pair_census(level)
        assert [(c.x_star, c.y_star) for c in report.combos] == list(hugging)
        for c in report.combos:
            found = hugging[c.x_star, c.y_star]
            assert c.pair_count == len(found), level
            assert c.example == (found[0] if found else (F(-1), F(-1))), level
        assert sorted(report.stray_pairs) == sorted(strays)


def test_scaled_cantor_level_set_is_the_endpoint_set_of_c_and_3c():
    # Fraction-built intervals at levels 1-10: about 0.08 s
    for level in range(1, 11):
        assert scaled_cantor_level_set(level) == scaled_cantor_endpoints(level), level


def test_symbolic_affine_arithmetic_and_order():
    tau = SymbolicAffine(F(0), F(1))
    assert (tau + 1) - tau == SymbolicAffine(F(1), F(0))
    assert sign(tau - 3) > 0 and sign(tau - 4) < 0
    assert sign(tau + tau - 6) > 0
    assert sign(SymbolicAffine(F(0), F(-1))) < 0  # -tau
    assert (2 * TAU_LOWER + 1) < 8  # sanity on the certified bounds
    assert sign(SymbolicAffine(F(1), F(0))) == 1
    assert sign(SymbolicAffine(F(0), F(0))) == 0
    with pytest.raises(AmbiguousComparisonError):
        # tau vs a rational inside the certified gap
        sign(tau - F(628319, 200000))


def test_transcendental_embed_isometry():
    values = [F(-2), F(1, 3), F(5)]
    images = transcendental_embed(values)
    assert all(img.r == 1 for img in images.values())
    original = sorted(abs(a - b) for a in values for b in values)
    shifted = []
    for a in values:
        for b in values:
            diff = images[a] - images[b]
            assert diff.is_rational()
            shifted.append(abs(diff.q))
    assert sorted(shifted) == original
    assert transcendental_embed([]) == {}


@given(st.lists(st.builds(F, st.integers(-60, 60), st.integers(1, 12)), max_size=8))
@settings(max_examples=200, deadline=None)
def test_embed_isometry_property(values):
    images = transcendental_embed(values)
    for a in values:
        for b in values:
            assert (images[a] - images[b]).q == a - b


def test_rational_subspace_refutation():
    tau = SymbolicAffine(F(0), F(1))
    record = rational_subspace_refutation(tau)
    assert record.tau_coefficient == 1
    record = rational_subspace_refutation(SymbolicAffine(F(1), F(2)))
    assert record.tau_coefficient == 2
    with pytest.raises(RationalInputError):
        rational_subspace_refutation(SymbolicAffine(F(3), F(0)))
