"""Differential tests of the prepared sampled-function paths.

A ``SampledFunction`` keeps its coordinates as integer rows over one
common denominator; the isotone scan, the lower-cone and axis lookups,
the amenable continuation and the cover tables read those rows.  Each
path is checked here against a Fraction reference: the oracles in
``tests/oracles.py``, a pair scan written out below, or the per-probe
cover table the envelope used before probes shared one.  Probes draw
coordinates with denominators no sample has.  Hypothesis runs
derandomized with a fixed number of examples, about 2.5 s in all.
"""

from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings, strategies as st

import isoprod.continuation as continuation
from isoprod.cli import dispatch
from isoprod import fileio
from oracles import amenable_continuation_value, cover_enumerate_min, isotone_pairs_hold
from isoprod.continuation import (
    amenable_isotone_continuation,
    lower_cone_max,
    subadditive_envelopes,
    upper_cone_min,
)
from isoprod.points import PointN, axis_vector, leq, scale_to_integers
from isoprod.sampled import SampledFunction, _isotone_scan, is_amenable, projection_support

SAMPLE_COORDS = (F(0), F(0), F(1, 2), F(1), F(3, 2), F(2), F(3))
# thirds, sevenths and fifths: no sample coordinate has these denominators
PROBE_COORDS = SAMPLE_COORDS + (F(1, 3), F(2, 7), F(5, 3), F(9, 7), F(11, 5))
VALUES = (F(0), F(1, 2), F(1), F(3, 2), F(2), F(3), F(7, 3))


@st.composite
def functions(draw, max_size=6, coords=SAMPLE_COORDS):
    dim = draw(st.integers(1, 3))
    point_st = st.tuples(*[st.sampled_from(coords)] * dim).map(PointN)
    pts = draw(st.lists(point_st, min_size=1, max_size=max_size, unique=True))
    if draw(st.booleans()):
        pts = list(dict.fromkeys([PointN((F(0),) * dim), *pts]))
    return SampledFunction([(p, draw(st.sampled_from(VALUES))) for p in pts])


@st.composite
def functions_with_probes(draw, max_size=6, probe_coords=PROBE_COORDS):
    f = draw(functions(max_size))
    probe_st = st.tuples(*[st.sampled_from(probe_coords)] * f.dim).map(PointN)
    return f, draw(st.lists(probe_st, min_size=1, max_size=6))


def fraction_pair_scan(f):
    for x in f.domain:
        for y in f.domain:
            if x != y and leq(x, y) and f.value(x) > f.value(y):
                return False, (x, y)
    return True, None


def amenable_scan(f):
    zero = PointN((F(0),) * f.dim)
    if f.value(zero) != 0:
        return False, zero
    for p in f.domain:
        if p != zero and f.value(p) == 0:
            return False, p
    return True, None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(functions(max_size=8, coords=SAMPLE_COORDS + (F(2, 3), F(5, 7))))
def test_isotone_scan_on_int_rows_agrees_with_fraction_scans(f):
    verdict = _isotone_scan(f)
    assert verdict[0] == isotone_pairs_hold(f)
    assert verdict == fraction_pair_scan(f)
    if PointN((F(0),) * f.dim) in f:
        assert is_amenable(f) == amenable_scan(f)
        assert is_amenable(f) is is_amenable(f)  # the kept verdict


# coordinates over 2, 3 and 7: rows share one denominator of 42
MIXED_COORDS = (F(0), F(1, 2), F(1), F(2, 3), F(4, 3), F(3, 7), F(9, 7), F(5, 2))


@st.composite
def shuffled_entries(draw):
    dim = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.sampled_from(MIXED_COORDS)] * dim), min_size=1, max_size=9, unique=True))
    return draw(st.permutations([(PointN(p), draw(st.sampled_from(VALUES))) for p in pts]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(shuffled_entries())
def test_prepared_fields_agree_with_a_fraction_sort_reference(entries):
    # the domain order, rows, int values and caps come from int rows sorted in entry order; the
    # reference sorts the points by their Fraction coordinates and scales each field on its own
    f = SampledFunction(entries)
    items = sorted(entries, key=lambda item: item[0].coords)
    den = 1
    for p, _ in items:
        for c in p.coords:
            den = den * c.denominator // gcd(den, c.denominator)
    value_den = 1
    for _, v in items:
        value_den = value_den * v.denominator // gcd(value_den, v.denominator)
    rows = tuple(tuple(int(c * den) for c in p.coords) for p, _ in items)
    assert f.domain == tuple(p for p, _ in items)
    assert f.items() == tuple(items)
    assert (f._den, f._rows) == (den, rows)
    assert (f._value_den, f._int_values) == (value_den, [int(v * value_den) for _, v in items])
    assert f._caps == tuple(max(row[j] for row in rows) for j in range(f.dim))
    assert all(f.value(p) == v for p, v in entries) and len(f) == len(entries)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(functions_with_probes())
def test_int_lookups_agree_with_fraction_brute_force(case):
    f, probes = case
    caps = {j: max(p.coords[j - 1] for p in f.domain) for j in range(1, f.dim + 1)}
    assert {j: F(cap, f._den) for j, cap in enumerate(f._caps, start=1)} == caps
    assert projection_support(f) == {j for j, cap in caps.items() if cap > 0}
    for y in probes:
        below = [v for a, v in f.items() if leq(a, y)]
        assert lower_cone_max(f, y) == max(below, default=F(0))
        for j, t in enumerate(y.coords, start=1):
            if t > 0 and j in projection_support(f):
                reach = min(t, caps[j])
                assert upper_cone_min(f, j, t) == min(v for a, v in f.items() if a.coords[j - 1] >= reach)



@st.composite
def amenable_functions_with_probes(draw):
    """An amenable isotone function, and probes off the axes and on each axis."""
    f, probes = draw(functions_with_probes())
    zero = PointN((F(0),) * f.dim)
    raw = {p: v or F(1) for p, v in f.items()}  # positive off the origin
    raw[zero] = F(0)
    f = SampledFunction({p: max(v for q, v in raw.items() if leq(q, p)) for p in raw})
    positive = st.sampled_from([t for t in PROBE_COORDS if t > 0])
    axis_probes = st.lists(st.builds(axis_vector, st.integers(1, f.dim), positive, st.just(f.dim)), max_size=4)
    return f, probes + draw(axis_probes)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(amenable_functions_with_probes())
def test_amenable_continuation_agrees_with_its_definition(case):
    f, probes = case
    for y in probes:
        assert amenable_isotone_continuation(f, y) == amenable_continuation_value(f, y)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(functions_with_probes(max_size=4, probe_coords=PROBE_COORDS[:6] + PROBE_COORDS[7:10]),
       st.sampled_from((F(1), F(1, 3), F(5, 2))))
def test_envelopes_agree_with_enumeration_oracle(case, c):
    f, probes = case
    for y, (value, cert) in zip(probes, subadditive_envelopes(f, probes, c)):
        cost, parts = cover_enumerate_min(f, y, c)
        assert value == cost == cert.cost
        assert tuple(p.coords for p, m in cert.parts for _ in range(m)) == parts


def per_probe_cover(f, y, c):
    """The envelope at y from a table of its own: the samples touching y and
    the axis points y needs, scaled together with y."""
    if y.is_origin():
        return F(0), continuation.CoverCertificate(y, (), F(0))
    ground = [(a, v) for a, v in f.items()
              if not a.is_origin() and any(aj > 0 and yj > 0 for aj, yj in zip(a.coords, y.coords))]
    ground += [(axis_vector(j, y.coords[j - 1], f.dim), F(c)) for j in range(1, f.dim + 1)
               if j not in projection_support(f) and y.coords[j - 1] > 0]
    ground.sort(key=lambda item: item[0].coords)
    _, flat = scale_to_integers([co for p, _ in ground for co in p.coords] + list(y.coords))
    rows = [tuple(flat[k:k + f.dim]) for k in range(0, len(flat), f.dim)]
    den, values = scale_to_integers(v for _, v in ground)
    costs, cover = continuation._min_cover(
        [(p, v, row) for (p, _), v, row in zip(ground, values, rows)], [rows[-1]])
    cost = F(costs[0], den)
    return cost, continuation.CoverCertificate(y, cover(0), cost)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(functions_with_probes(max_size=8), st.sampled_from((F(1), F(2, 7))))
def test_shared_table_agrees_with_per_probe_tables(case, c):
    f, probes = case
    assert subadditive_envelopes(f, probes, c) == [per_probe_cover(f, y, c) for y in probes]


def test_one_envelope_dispatch_builds_one_table_for_its_sample_supported_probes(tmp_path, monkeypatch):
    tables = []
    min_cover = continuation._min_cover
    monkeypatch.setattr(continuation, "_min_cover",
                        lambda ground, demands: tables.append(list(demands)) or min_cover(ground, demands))
    path = tmp_path / "f.json"
    # axis 3 carries no positive sample, so only probes positive on it need axis points
    fileio.dump_sampled_function(SampledFunction(
        [(PointN((0, 0, 0)), 0), (PointN((1, 0, 0)), 2), (PointN((0, 1, 0)), 3), (PointN((1, 1, 0)), 4)]), path)
    probes = ["(2,1,0)", "(1/3,2/7,0)", "(0,0,1)", "(0,0,0)", "(5,0,0)", "(1,1,1/2)", "(1,0,1)"]
    code, report = dispatch(["envelope", "--function", str(path), *[a for p in probes for a in ("--probe", p)]])
    assert code == 0 and len(report["verdicts"]) == 7
    # one table for the sample-supported probes, one per set of axis points, in order of first need;
    # the sample coordinates are integers, so a probe's demand is its coordinates rounded up
    groups = [[0, 1, 3, 4], [2, 6], [5]]
    demand = lambda p: tuple(-(-t.numerator // t.denominator) for t in p.coords)
    assert tables == [[demand(fileio.parse_point_string(probes[i])) for i in group] for group in groups]


def line(n):
    return SampledFunction([(PointN((t,)), t) for t in range(n)])


def test_cover_budget_counts_residual_by_touching_ground_steps(tmp_path, monkeypatch):
    # t -> t on 0..19 with probe 19: the residuals 1..19 each touch the 19 nonzero samples
    path = tmp_path / "line.json"
    fileio.dump_sampled_function(line(20), path)
    argv = ["envelope", "--function", str(path), "--probe", "19", "--probe", "18", "--probe", "5/2"]
    monkeypatch.setattr(continuation, "COVER_BUDGET", 19 * 19)
    code, report = dispatch(argv)
    assert code == 0  # the three probes share one table and its 361 steps
    assert [v["value"] for v in report["verdicts"]] == ["19", "18", "3"]
    monkeypatch.setattr(continuation, "COVER_BUDGET", 19 * 19 - 1)
    code, report = dispatch(argv)
    assert code == 2
    assert report["error"] == "CoverBudgetError: the cover search exceeds its budget of 360 residual x ground steps"
    code, report = dispatch(["check", "--function", str(path)])
    assert code == 2 and report["error"].startswith("CoverBudgetError: ")
