import random
from fractions import Fraction as F

import pytest

import isoprod.sampled as sampled
from oracles import isotone_pairs_hold, subadditive_violation
from isoprod.continuation import CoverCertificate, subadditive_envelope, sup_continuation
from isoprod.errors import (
    DimensionMismatchError,
    EmptyDomainError,
    MissingOriginError,
    NotIsotoneError,
)
from isoprod.fixtures import random_point, random_sampled_function
from isoprod.points import PointN, leq, origin, point
from isoprod.sampled import (
    SampledFunction,
    is_amenable,
    is_isotone,
    is_subadditive,
    projection_support,
)


def sf(pairs):
    return SampledFunction([(point(*coords), value) for coords, value in pairs])


def test_construction_validation():
    with pytest.raises(EmptyDomainError):
        SampledFunction([])
    with pytest.raises(ValueError, match="duplicate"):
        sf([((1, 1), 1), ((1, 1), 2)])
    with pytest.raises(DimensionMismatchError):
        sf([((1,), 1), ((1, 2), 2)])
    with pytest.raises(ValueError, match="negative"):
        sf([((1, 1), "-1")])


def test_domain_is_sorted():
    f = sf([((2, 0), 1), ((0, 0), 0), ((1, 1), 2)])
    assert f.domain == (point(0, 0), point(1, 1), point(2, 0))


def test_is_isotone_examples():
    ok, witness = is_isotone(sf([((0, 0), 0), ((1, 1), 2), ((2, 2), 3)]))
    assert ok and witness is None
    ok, witness = is_isotone(sf([((0, 0), 1), ((1, 1), 0)]))
    assert not ok and witness == (point(0, 0), point(1, 1))
    ok, _ = is_isotone(sf([((1, 0), 5), ((0, 1), 1)]))
    assert ok


def test_is_amenable_examples():
    ok, witness = is_amenable(sf([((0, 0), 0), ((1, 2), 1)]))
    assert ok and witness is None
    ok, witness = is_amenable(sf([((0, 0), 0), ((1, 0), 0)]))
    assert not ok and witness == point(1, 0)
    with pytest.raises(MissingOriginError):
        is_amenable(sf([((1, 1), 1)]))
    ok, witness = is_amenable(sf([((0, 0), "1/2"), ((1, 1), 1)]))
    assert not ok and witness == origin(2)


def test_is_subadditive_examples():
    ok, witness = is_subadditive(sf([((1,), 1), ((2,), 3)]))
    assert not ok
    assert witness.target == point(2)
    assert witness.parts == ((point(1), 2),)
    assert witness.cost == 2

    ok, witness = is_subadditive(sf([((1,), 1), ((2,), 2)]))
    assert ok and witness is None

    ok, _ = is_subadditive(sf([((0, 0), 0)]))
    assert ok


def test_is_subadditive_requires_isotone():
    with pytest.raises(NotIsotoneError):
        is_subadditive(sf([((0,), 1), ((1,), 0)]))


def test_projection_support_examples():
    assert projection_support(sf([((1, 0), 1), ((0, 0), 0)])) == {1}
    assert projection_support(sf([((0, 0), 0)])) == set()
    assert projection_support(sf([((1, 0), 1), ((0, 2), 1)])) == {1, 2}


def test_restriction_keeps_isotone_and_amenable():
    rng = random.Random(4201)
    for _ in range(25):
        f = random_sampled_function(rng, mode="amenable", size=5)
        assert is_isotone(f)[0] and is_amenable(f)[0]
        keep = [p for i, p in enumerate(f.domain) if i % 2 == 0 or p.is_origin()]
        if origin(f.dim) not in keep:
            keep.append(origin(f.dim))
        g = SampledFunction({p: f.value(p) for p in keep})
        assert is_isotone(g)[0]
        assert is_amenable(g)[0]


def test_subadditive_agrees_with_enumeration_oracle():
    # seeded sweep over small isotone instances, coordinates in 0..3
    rng = random.Random(90125)
    grid = (F(0), F(1), F(2), F(3))
    disagreements = []
    for trial in range(60):
        f = random_sampled_function(
            rng, dim=rng.randint(1, 3), size=rng.randint(1, 5), grid=grid, mode="isotone"
        )
        assert isotone_pairs_hold(f)
        verdict, certificate = is_subadditive(f)
        oracle = subadditive_violation(f)
        if verdict != (oracle is None):
            disagreements.append((trial, f))
        if not verdict:
            # the certificate really is a cheaper cover of its target
            assert certificate.cost < f.value(certificate.target)
            values = dict(f.items())
            assert certificate.verify(lambda p: values[p])
    assert not disagreements


def test_subadditive_certificate_is_the_envelope_certificate():
    # the one table over every sample answers as the envelope asked at each
    # sample in turn: same verdict, same first violated sample, same certificate
    rng = random.Random(60217)
    seen = set()
    for trial in range(180):
        dim, den = 1 + trial % 3, (2, 3)[trial // 3 % 2]
        grid = [F(k, den) for k in range(2 * den + 1)]
        f = random_sampled_function(rng, dim=dim, size=rng.randint(1, 6), grid=grid, mode="isotone")
        verdict, certificate = is_subadditive(f)
        expected = None
        for a in f.domain:
            value, envelope_certificate = subadditive_envelope(f, a)
            if value < f.value(a):
                expected = envelope_certificate
                break
        assert verdict == (expected is None)
        assert certificate == expected
        zero = origin(dim)
        seen.add((dim, den, verdict))
        seen.add(("zero off the origin", any(v == 0 for a, v in f.items() if a != zero)))
        seen.add(("positive origin", zero in f and f.value(zero) > 0))
    assert {(d, q, v) for d in (1, 2, 3) for q in (2, 3) for v in (True, False)} <= seen
    assert {("zero off the origin", True), ("positive origin", True)} <= seen


def test_isotone_verdict_is_cached_and_matches_a_fresh_scan():
    rng = random.Random(4242)
    seen = set()
    for trial in range(80):
        f = random_sampled_function(rng, mode=("raw", "isotone")[trial % 2])
        verdict = is_isotone(f)
        assert is_isotone(f) is verdict  # the kept verdict, not a new scan
        assert verdict[0] == isotone_pairs_hold(f)
        assert sampled._isotone_scan(SampledFunction(dict(f.items()))) == verdict
        if not verdict[0]:
            x, y = verdict[1]
            assert leq(x, y) and f.value(x) > f.value(y)
        seen.add(verdict[0])
    assert seen == {True, False}


def test_isotone_scan_runs_once_per_function(monkeypatch):
    scans = []
    scan = sampled._isotone_scan
    monkeypatch.setattr(sampled, "_isotone_scan", lambda f: scans.append(f) or scan(f))
    rng = random.Random(17)
    f = random_sampled_function(rng, dim=2, size=5, mode="isotone")
    for _ in range(25):
        sup_continuation(f, random_point(rng, 2))
    is_subadditive(f)
    assert scans == [f]
    g = SampledFunction(dict(f.items()))  # an equal but new object scans again
    sup_continuation(g, random_point(rng, 2))
    assert len(scans) == 2 and scans[1] is g


def test_construction_hashes_each_point_once_and_compares_no_coordinate(monkeypatch):
    # about 0.1 s: a sampled function of N points hashes each once; a valid point, the kept
    # amenable verdict and a cover certificate build or compare no Fraction coordinate
    hashes, compares, points = [], [], []
    point_hash, point_init = PointN.__hash__, PointN.__init__
    monkeypatch.setattr(PointN, "__hash__", lambda p: hashes.append(p) or point_hash(p))
    monkeypatch.setattr(PointN, "__init__", lambda p, coords: points.append(coords) or point_init(p, coords))
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        method = getattr(F, name)
        monkeypatch.setattr(F, name, lambda a, b, method=method: compares.append(a) or method(a, b))
    rng = random.Random(29)
    for dim in (1, 2, 3):
        f = random_sampled_function(rng, dim=dim, size=6, mode="amenable")
        entries = [(PointN(p.coords), v) for p, v in f.items()]
        rng.shuffle(entries)
        hashes.clear()
        g = SampledFunction(entries)
        assert len(hashes) == len(g) == 6
        compares.clear()
        PointN((F(1, 2), 3, "0", F(7, 3))[:dim])
        assert compares == []
        is_amenable(g)
        hashes.clear(), points.clear()
        assert is_amenable(g)[0] and hashes == points == []  # the kept verdict
        parts = tuple((p, k) for k, p in enumerate(g.domain[1:4], start=1))
        target = PointN(tuple(map(sum, zip(*([c * k for c in p.coords] for p, k in parts)))))
        points.clear()
        CoverCertificate(target, parts, 1)
        assert points == []


def test_equality_and_hash_read_the_rows_and_values(tmp_path):
    # a function loaded from rows equals the one built from its entries without building a point,
    # and differs from one with another value or another point
    from isoprod import fileio

    entries = [(point(0, 0), 0), (point(1, F(1, 2)), F(3, 2)), (point(2, 0), 1)]
    f = SampledFunction(entries)
    fileio.dump_sampled_function(f, tmp_path / "f.json")
    g = fileio.load_sampled_function(tmp_path / "f.json")
    assert g == f and hash(g) == hash(f) and g._items is None
    assert SampledFunction(entries[:2] + [(point(2, 0), 2)]) != f
    assert SampledFunction(entries[:2] + [(point(3, 0), 1)]) != f
