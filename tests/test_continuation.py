import random
from fractions import Fraction as F

import pytest

from extremality import envelope_maximality_check, minimality_check
from oracles import cover_enumerate_min
from isoprod.continuation import (
    CoverCertificate,
    amenable_continuation_precheck,
    amenable_isotone_continuation,
    subadditive_envelope,
    sup_continuation,
    upper_cone_min,
)
from isoprod.errors import (
    DimensionMismatchError,
    MissingOriginError,
    NotAmenableError,
    NotIsotoneError,
)
from isoprod.fixtures import VALUE_GRID, random_point, random_sampled_function
from isoprod.points import leq, origin, point
from isoprod.sampled import SampledFunction, is_isotone, is_subadditive


def sf(pairs):
    return SampledFunction([(point(*coords), value) for coords, value in pairs])


# -- sup continuation ---------------------------------------------------

def test_sup_continuation_examples():
    f = sf([((1, 1), 5), ((0, 0), 0)])
    assert sup_continuation(f, point(2, 2)) == 5
    assert sup_continuation(f, point(1, 0)) == 0  # empty sup convention
    g = sf([((0, 0), 0), ((2, 0), 1), ((0, 2), 3)])
    assert sup_continuation(g, point(2, 2)) == 3


def test_sup_continuation_errors():
    with pytest.raises(NotIsotoneError):
        sup_continuation(sf([((0,), 1), ((1,), 0)]), point(2))
    with pytest.raises(DimensionMismatchError):
        sup_continuation(sf([((1, 1), 1)]), point(1))


def test_sup_continuation_extends_and_is_isotone():
    rng = random.Random(777)
    for _ in range(30):
        f = random_sampled_function(rng, mode="isotone")
        for a, v in f.items():
            assert sup_continuation(f, a) == v
        p = random_point(rng, f.dim)
        q = p + random_point(rng, f.dim)
        assert sup_continuation(f, p) <= sup_continuation(f, q)


def test_minimality_check():
    f = sf([((0,), 0), ((1,), 1)])

    def ceiling_two(p):
        if p in f:
            return f.value(p)
        return F(2)

    assert minimality_check(f, ceiling_two, [point(3)])
    assert minimality_check(f, lambda p: sup_continuation(f, p), [point(2), point(5)])

    def too_small(p):
        if p in f:
            return f.value(p)
        return sup_continuation(f, p) - 1 if sup_continuation(f, p) >= 1 else F(0)

    assert not minimality_check(f, too_small, [point(3)])
    with pytest.raises(ValueError, match="!="):
        minimality_check(f, lambda p: F(99), [point(3)])


# -- amenable continuation ----------------------------------------------

def test_precheck():
    f = sf([((0, 0), 0), ((1, 1), 4)])
    ok, diagnostics = amenable_continuation_precheck(f)
    assert ok and diagnostics["subsets_scanned"] == 0
    ok, _ = amenable_continuation_precheck(sf([((0, 0), 0)]))
    assert ok
    with pytest.raises(NotAmenableError):
        amenable_continuation_precheck(sf([((0, 0), 0), ((1, 0), 0)]))
    with pytest.raises(MissingOriginError):
        amenable_continuation_precheck(sf([((1, 1), 1)]))


def test_amenable_continuation_examples():
    f = sf([((0, 0), 0), ((1, 1), 4)])
    assert amenable_isotone_continuation(f, point("1/2", 0)) == 4
    assert amenable_isotone_continuation(f, point(0, 0)) == 0
    g = sf([((0, 0), 0), ((1, 0), 2)])  # axis 2 carries no positive sample
    assert amenable_isotone_continuation(g, point(0, "3/4")) == F(3, 4)


def test_amenable_continuation_restricts_and_is_positive():
    rng = random.Random(2024)
    for _ in range(30):
        f = random_sampled_function(rng, mode="amenable", size=rng.randint(1, 6))
        for a, v in f.items():
            assert amenable_isotone_continuation(f, a) == v
        for _ in range(5):
            probe = random_point(rng, f.dim, VALUE_GRID[1:])  # strictly positive
            value = amenable_isotone_continuation(f, probe)
            assert value > 0
        p = random_point(rng, f.dim)
        q = p + random_point(rng, f.dim)
        assert amenable_isotone_continuation(f, p) <= amenable_isotone_continuation(f, q)


def test_axis_rules():
    f = sf([((0, 0), 0), ((1, 0), 2), ((2, 0), 5)])
    assert f._caps == (2, 0)
    # upper-cone infimum on the supported axis: min over samples above t
    assert upper_cone_min(f, 1, F(1, 2)) == 2
    assert upper_cone_min(f, 1, F(3, 2)) == 5
    assert upper_cone_min(f, 1, F(7)) == 5  # clamped at the cap
    # the continuation at an axis point is its axis value: identity on axis 2
    assert amenable_isotone_continuation(f, point(0, "3/4")) == F(3, 4)
    assert amenable_isotone_continuation(f, point(0, "1/3")) == F(1, 3)
    assert amenable_isotone_continuation(f, point("1/2", 0)) == 2
    assert amenable_isotone_continuation(f, point(7, 0)) == 5
    assert amenable_isotone_continuation(f, point(1, 0)) == 2
    # the envelope values an axis point of axis 2 at the constant c
    value, cert = subadditive_envelope(f, point(0, 100), F(1, 2))
    assert value == F(1, 2) and cert.parts == ((point(0, 100), 1),)
    with pytest.raises(ValueError, match="axis constant must be positive"):
        subadditive_envelope(f, point(0, 1), 0)


# -- subadditive envelope -----------------------------------------------

def test_envelope_examples():
    f = sf([((1, 0), 2), ((0, 1), 3)])
    value, cert = subadditive_envelope(f, point(1, 1))
    assert value == 5
    assert cert.parts == ((point(0, 1), 1), (point(1, 0), 1))
    value, cert = subadditive_envelope(f, point(2, 0))
    assert value == 4
    assert cert.parts == ((point(1, 0), 2),)
    value, cert = subadditive_envelope(f, point(0, 0))
    assert value == 0 and cert.parts == ()
    g = sf([((1,), 1), ((2,), 3)])
    value, cert = subadditive_envelope(g, point(2))
    assert value == 2 and cert.parts == ((point(1), 2),)
    assert value < g.value(point(2))


def test_envelope_zero_axis_constant():
    f = sf([((0, 0), 0), ((1, 0), 2)])
    value, cert = subadditive_envelope(f, point(0, "3/4"))
    assert value == 1
    assert cert.parts == ((point(0, "3/4"), 1),)
    value, cert = subadditive_envelope(f, point(2, 1), c=F(1, 2))
    assert value == F(9, 2)
    assert cert.parts == ((point(0, 1), 1), (point(1, 0), 2))
    with pytest.raises(ValueError):
        subadditive_envelope(f, point(1, 1), c=0)


def test_envelope_tie_break_is_lexicographic():
    f = sf([((1, 0), 1), ((2, 0), 2)])
    value, cert = subadditive_envelope(f, point(2, 0))
    assert value == 2
    assert cert.parts == ((point(1, 0), 2),)


def test_envelope_matches_enumeration_oracle():
    rng = random.Random(31337)
    for _ in range(50):
        f = random_sampled_function(rng)
        for _ in range(4):
            probe = random_point(rng, f.dim)
            value, cert = subadditive_envelope(f, probe)
            oracle = cover_enumerate_min(f, probe)
            assert oracle is not None
            assert value == oracle[0]
            expanded = tuple(p.coords for p, m in cert.parts for _ in range(m))
            assert expanded == oracle[1]


def test_envelope_is_isotone_subadditive_and_below_samples():
    rng = random.Random(555)
    for _ in range(25):
        f = random_sampled_function(rng)
        for a, v in f.items():
            assert subadditive_envelope(f, a)[0] <= v
        p = random_point(rng, f.dim)
        q = random_point(rng, f.dim)
        ep = subadditive_envelope(f, p)[0]
        eq = subadditive_envelope(f, q)[0]
        assert subadditive_envelope(f, p + q)[0] <= ep + eq
        if leq(p, q):
            assert ep <= eq


def test_envelope_restriction_equality_iff_subadditive():
    rng = random.Random(909)
    for _ in range(40):
        f = random_sampled_function(rng, mode=rng.choice(["raw", "isotone"]))
        equal_on_samples = all(
            subadditive_envelope(f, a)[0] == v for a, v in f.items()
        )
        iso_ok, _ = is_isotone(f)
        verdict = iso_ok and is_subadditive(f)[0]
        assert equal_on_samples == verdict


def test_envelope_amenable_when_support_full():
    # every nonempty cover of a positive probe costs at least the least
    # positive sample value
    f = sf([((0, 0), 0), ((1, 0), "1/2"), ((0, 1), 2), ((1, 1), 3)])
    least = F(1, 2)
    rng = random.Random(11)
    for _ in range(20):
        probe = random_point(rng, 2, VALUE_GRID[1:])
        assert subadditive_envelope(f, probe)[0] >= least


def test_certificate_invariants():
    cert = CoverCertificate(point(1, 1), ((point(1, 0), 1), (point(0, 1), 1)), F(5))
    assert cert.part_count() == 2
    assert cert.verify(lambda p: F(2) if p == point(1, 0) else F(3))
    assert not cert.verify(lambda p: F(1))
    with pytest.raises(ValueError, match="cover"):
        CoverCertificate(point(2, 2), ((point(1, 0), 1),), F(2))
    with pytest.raises(ValueError, match="positive"):
        CoverCertificate(point(0, 0), ((point(1, 0), 0),), F(0))


def test_envelope_maximality_check():
    f = sf([((1, 0), 2), ((0, 1), 3)])
    probes = [point(0, 0), point(1, 1), point(2, 0), point(3, 2)]
    assert envelope_maximality_check(f, lambda p: F(0), probes)
    assert envelope_maximality_check(
        f, lambda p: subadditive_envelope(f, p)[0], probes
    )
    # scaled sum sitting below f on the samples stays below the envelope
    scale = min(v / sum(a.coords) for a, v in f.items())
    assert envelope_maximality_check(
        f, lambda p: scale * sum(p.coords, F(0)), probes
    )
    with pytest.raises(ValueError, match=">"):
        envelope_maximality_check(f, lambda p: F(10), probes)
    with pytest.raises(ValueError, match="subadditive"):
        envelope_maximality_check(
            f, lambda p: sum(c * c for c in p.coords) / 100, [point(2, 2), point(3, 3)]
        )
