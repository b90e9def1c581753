"""The frozen value records keep the contract of ``@dataclass(frozen=True)``.

Each record class is compared with a stdlib twin built here by
``dataclasses.make_dataclass(..., frozen=True)`` over the same fields,
holding the same (already validated) field values: repr, hash,
equality, construction and the frozen attributes must agree.
"""

import dataclasses
import random
from fractions import Fraction as F

import pytest

from isoprod.cantor import (
    Base3Expansion,
    ComboEvidence,
    RationalSubspaceRefutation,
    SymbolicAffine,
    TripleRefutationReport,
)
from isoprod.combiners import Combiner, named_combiner
from isoprod.continuation import CoverCertificate, subadditive_envelope
from isoprod.errors import CombinerDomainGapError, DimensionMismatchError, EmptyDomainError
from isoprod.metric import (
    DistanceIncreaseViolation,
    FiniteMetricSpace,
    MetricPreservingReport,
    MetricViolation,
    ProductSpec,
)
from isoprod.modulus import FixedPointReport
from isoprod.points import PointN, Record, point
from isoprod.sampled import SampledFunction

SUM = named_combiner("SUM")


def _frac(rng):
    return F(rng.randint(0, 30), rng.choice((1, 2, 3, 7)))


def _point(rng, dim):
    return PointN(tuple(_frac(rng) for _ in range(dim)))


def _digits(rng):
    return tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 4)))


def _space(rng):
    n = rng.randint(1, 3)
    labels = [f"p{i}" for i in range(n)]
    return FiniteMetricSpace(labels, [[abs(i - j) for j in range(n)] for i in range(n)])


def _space_fields(rng):
    space = _space(rng)
    return [space.labels, space.dist]


def _cover_fields(rng):
    dim = rng.randint(1, 3)
    parts = tuple((_point(rng, dim), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
    total = [sum(p.coords[k] * m for p, m in parts) for k in range(dim)]
    return [PointN(tuple(t * F(rng.randint(0, 4), 4) for t in total)), parts, _frac(rng)]


def _combo_fields(rng):
    return [_frac(rng), _frac(rng), rng.randint(0, 9), (_frac(rng), _frac(rng))]


def _pair(rng):
    return (tuple(rng.choice("abc") for _ in range(2)), tuple(rng.choice("abc") for _ in range(2)))


# class -> seeded field values; each list holds every field, defaults included
FIELDS = {
    PointN: lambda rng: [tuple(_frac(rng) for _ in range(rng.randint(1, 3)))],
    Base3Expansion: lambda rng: [
        (1, *_digits(rng)) if rng.random() < 0.7 else (), _digits(rng), _digits(rng)
    ],
    ComboEvidence: _combo_fields,
    TripleRefutationReport: lambda rng: [
        rng.randint(0, 6),
        tuple((_frac(rng), rng.choice(("gap", "left", "right"))) for _ in range(rng.randint(0, 3))),
        tuple(ComboEvidence(*_combo_fields(rng)) for _ in range(rng.randint(0, 2))),
        tuple((_frac(rng), _frac(rng)) for _ in range(rng.randint(0, 2))),
        rng.random() < 0.5,
        rng.random() < 0.5,
    ],
    SymbolicAffine: lambda rng: [_frac(rng) - 10, _frac(rng) - 10],
    RationalSubspaceRefutation: lambda rng: [
        SymbolicAffine(_frac(rng), F(1)), F(1), f"r{rng.randint(0, 99)}"
    ],
    Combiner: lambda rng: [rng.choice(("SUM", "MAX")), SUM.fn, rng.random() < 0.5],
    CoverCertificate: _cover_fields,
    MetricViolation: lambda rng: [
        rng.choice(("symmetry", "identity", "triangle")),
        tuple(rng.randint(0, 5) for _ in range(rng.randint(2, 3))),
        f"d(0,1)={rng.randint(0, 9)}",
    ],
    FiniteMetricSpace: _space_fields,
    ProductSpec: lambda rng: [tuple(_space(rng) for _ in range(rng.randint(1, 3))), SUM],
    DistanceIncreaseViolation: lambda rng: [
        _pair(rng),
        _pair(rng),
        (_frac(rng), _frac(rng)),
        (_frac(rng), _frac(rng)),
        _frac(rng),
        _frac(rng),
    ],
    MetricPreservingReport: lambda rng: [
        rng.random() < 0.5,
        rng.random() < 0.5,
        _point(rng, 2) if rng.random() < 0.5 else None,
        rng.random() < 0.5,
        CoverCertificate(*_cover_fields(rng)) if rng.random() < 0.5 else None,
    ],
    FixedPointReport: lambda rng: [_frac(rng), _point(rng, 2) if rng.random() < 0.5 else None],
}


DEFAULTS = {Combiner: {"exact": True}}


def _names(cls):
    return list(cls.__annotations__)


def _twin(cls):
    defaults = DEFAULTS.get(cls, {})
    fields = [(n, object, dataclasses.field(default=defaults[n])) if n in defaults else (n, object)
              for n in _names(cls)]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - the outcome itself is compared
        return (type(exc), str(exc))


def _instances(cls, seed, count):
    rng = random.Random(seed)
    return [cls(*FIELDS[cls](rng)) for _ in range(count)]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_record_matches_frozen_dataclass_twin(cls):
    twin_cls = _twin(cls)
    names = _names(cls)
    records = _instances(cls, 9, 25)
    others = _instances(next(c for c in FIELDS if c is not cls), 10, 3)
    lookalike = type("Lookalike", (Record,), {"__annotations__": dict(cls.__annotations__)})
    for rec in records:
        values = [getattr(rec, n) for n in names]
        twin = twin_cls(*values)
        assert repr(rec) == repr(twin)
        assert _outcome(lambda: hash(rec)) == _outcome(lambda: hash(twin))
        # construction: positional, by keyword, and with defaults left out
        assert cls(*values) == rec and cls(**dict(zip(names, values))) == rec
        for name in DEFAULTS.get(cls, {}):
            kept = {n: v for n, v in zip(names, values) if n != name}
            assert repr(cls(**kept)) == repr(twin_cls(**kept))
            assert cls(**kept) == cls(**kept, **{name: DEFAULTS[cls][name]})
        # ==, != against the same class, other record classes (one with the same fields and
        # values) and a plain tuple
        for peer in records:
            peer_twin = twin_cls(*[getattr(peer, n) for n in names])
            assert (rec == peer) == (twin == peer_twin)
            assert (rec != peer) == (twin != peer_twin)
        for other in (*others, lookalike(*values), tuple(values), values[0]):
            assert (rec == other) is (twin == other) is False
            assert (rec != other) is (twin != other) is True
        # frozen: assigning or deleting any attribute raises AttributeError with the same text
        for name in (names[0], "extra"):
            for act in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
                got, want = _outcome(lambda: act(rec)), _outcome(lambda: act(twin))
                assert issubclass(got[0], AttributeError) and issubclass(want[0], AttributeError)
                assert got[1] == want[1]
        assert [getattr(rec, n) for n in names] == values


def test_default_fields():
    assert Combiner("SUM", SUM.fn).exact is True
    assert Combiner("SUM", SUM.fn) == Combiner("SUM", SUM.fn, True)
    assert Combiner("SUM", SUM.fn) != Combiner("SUM", SUM.fn, False)


def test_bad_constructor_calls_are_type_errors():
    # no fields, a missing field, a field twice, an unknown field, too many values
    calls = [((), {}), ((1,), {}), ((1,), {"q": 2}), ((1, 2), {"s": 3}), ((1, 2, 3), {})]
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            SymbolicAffine(*args, **kwargs)


def _error(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def test_validation_errors_are_unchanged():
    space = FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]])
    f = SampledFunction([(point(0, 0), 0), (point(1, 0), 1)])
    cases = [
        (lambda: PointN(()), ValueError, "a point needs at least one coordinate"),
        (lambda: PointN((1, -2, -3)), ValueError, "negative coordinate -2 not allowed"),
        (lambda: PointN((0.5,)), TypeError, "cannot interpret 0.5 as an exact rational"),
        (lambda: point(True), TypeError, "booleans are not rationals"),
        (lambda: Base3Expansion((1, 3), (), ()), ValueError, "invalid base-3 digit 3"),
        (lambda: Base3Expansion((), (0,), (2, 5)), ValueError, "invalid base-3 digit 5"),
        (lambda: Base3Expansion((0, 1), (), ()), ValueError,
         "integer digits must not have leading zeros"),
        (lambda: CoverCertificate(point(1), ((point(1), 0),), 1), ValueError,
         "part multiplicities must be positive"),
        (lambda: CoverCertificate(point(2, 1), ((point(1, 1), 1),), 1), ValueError,
         "parts do not cover (2, 1)"),
        # each part is checked in turn, its multiplicity before its dimension
        (lambda: CoverCertificate(point(1, 1), ((point(1, 1), 1), (point(1), 0)), 1), ValueError,
         "part multiplicities must be positive"),
        (lambda: CoverCertificate(point(1, 1), ((point(1), 2), (point(1, 1), 0)), 1), DimensionMismatchError,
         "dimension mismatch: 2 vs 1"),
        (lambda: ProductSpec((), SUM), ValueError, "a product needs at least one factor"),
        (lambda: ProductSpec([space], f), ValueError, "combiner dimension 2 != 1 factors"),
        (lambda: ProductSpec([space, space], f), CombinerDomainGapError,
         "sampled combiner lacks distance tuple (0, 1)"),
        (lambda: subadditive_envelope(f, point(1, 1), 0), ValueError,
         "the axis constant must be positive, got 0"),
        (lambda: subadditive_envelope(f, point(1, 1), "-1/2"), ValueError,
         "the axis constant must be positive, got -1/2"),
        # a sampled function checks each entry in turn: its dimension, then its value, then a repeat
        (lambda: SampledFunction([]), EmptyDomainError, "a sampled function needs at least one entry"),
        (lambda: SampledFunction([(point(0), 0), (point(0), 1), (point(1), -1), (point(1, 1), 1)]), ValueError,
         "duplicate point (0)"),
        (lambda: SampledFunction([(point(0), 0), (point(0), "-1/2")]), ValueError, "negative value -1/2 at (0)"),
        (lambda: SampledFunction([(point(0), 0), (point("1/2"), -1), (point(1, 1), 1)]), ValueError,
         "negative value -1 at (1/2)"),
        (lambda: SampledFunction([(point(0, 0), 0), (point(1), -1), (point(0, 0), 1)]), DimensionMismatchError,
         "point (1) has dimension 1, expected 2"),
        (lambda: SampledFunction([(point(0), 0), (point(1), "1/3"), (point(1), F(1, 3))]), ValueError,
         "duplicate point (1)"),
        (lambda: SampledFunction([(point(0), 0.5)]), TypeError, "cannot interpret 0.5 as an exact rational"),
    ]
    for fn, kind, text in cases:
        assert _error(fn) == (kind, text)
