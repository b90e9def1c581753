"""The int-coded cover table against a tuple-keyed reference table.

``continuation._min_cover`` codes each residual demand as one int;
``tests/cover_table.py`` keys the same table by residual tuples.  Every
table that ``is_subadditive`` and ``subadditive_envelopes`` build here
is rebuilt by the reference: the costs, every certificate and the number
of steps that ``COVER_BUDGET`` is held to must agree.  Functions have n = 1-3 and coordinates with
denominators 1-6, isotone or not; probes reach axes that no sample
reaches, so axis points of constant c join the ground.  Hypothesis runs
derandomized with a fixed number of examples, about 1 s in all.
"""

from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import isoprod.continuation as continuation
from cover_table import cover_table
from isoprod.continuation import subadditive_envelope, subadditive_envelopes
from isoprod.errors import CoverBudgetError
from isoprod.points import PointN, point
from isoprod.sampled import SampledFunction, is_isotone, is_subadditive

COORDS = (F(0), F(0), F(1), F(1, 2), F(2, 3), F(3, 4), F(6, 5), F(5, 6), F(4, 3), F(3, 2))
PROBE_COORDS = COORDS + (F(1, 6), F(7, 4), F(2))
VALUES = (F(0), F(1, 2), F(1), F(3, 2), F(2), F(5, 3), F(7, 6))


@st.composite
def functions_with_probes(draw):
    dim = draw(st.integers(1, 3))
    # samples keep the axes in `dead` at 0, so probes positive there need axis points
    dead = draw(st.sets(st.integers(0, dim - 1), max_size=dim - 1))
    coords = [st.just(F(0)) if j in dead else st.sampled_from(COORDS) for j in range(dim)]
    pts = draw(st.lists(st.tuples(*coords).map(PointN), min_size=2, max_size=7 - dim, unique=True))
    f = SampledFunction([(p, draw(st.sampled_from(VALUES))) for p in pts])
    probes = draw(st.lists(st.tuples(*[st.sampled_from(PROBE_COORDS)] * dim).map(PointN), min_size=1, max_size=3))
    return f, probes


def recorded_tables(f, probes, c):
    """Every (ground, demands, costs, cover parts) of the tables the envelopes of the probes
    and, for an isotone f, its subadditivity verdict build; ground values and costs are ints."""
    tables = []
    min_cover = continuation._min_cover

    def recording(ground, demands):
        costs, cover = min_cover(ground, demands)
        tables.append((ground, demands, costs, [cover(i) for i in range(len(demands))]))
        return costs, cover

    with mock.patch.object(continuation, "_min_cover", recording):
        subadditive_envelopes(f, probes, c)
        if is_isotone(f)[0]:
            is_subadditive(f)
    return tables


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(functions_with_probes(), st.sampled_from((F(1), F(1, 3), F(5, 2))))
def test_int_coded_table_agrees_with_the_tuple_table(case, c):
    f, probes = case
    for ground, demands, costs, covers in recorded_tables(f, probes, c):
        expected, chains, steps = cover_table([v for _, v, _ in ground], [row for _, _, row in ground], demands)
        assert costs == expected
        for parts, chain in zip(covers, chains):
            assert [p for p, m in parts for _ in range(m)] == [ground[k][0] for k in chain]
        # the same step count: the table fits a budget of exactly its steps
        with mock.patch.object(continuation, "COVER_BUDGET", steps):
            assert continuation._min_cover(ground, demands)[0] == costs
        if steps:
            with mock.patch.object(continuation, "COVER_BUDGET", steps - 1), pytest.raises(CoverBudgetError):
                continuation._min_cover(ground, demands)


def test_cover_budget_counts_one_step_per_residual_and_touching_ground_point(monkeypatch):
    # ground {1} and demand n: the residuals n, n - 1, ..., 1 each touch the one ground point
    n = 7
    f = SampledFunction([(point(0), 0), (point(1), 1)])
    monkeypatch.setattr(continuation, "COVER_BUDGET", n)
    value, certificate = subadditive_envelope(f, point(n))
    assert value == n and certificate.parts == ((point(1), n),)
    monkeypatch.setattr(continuation, "COVER_BUDGET", n - 1)
    with pytest.raises(CoverBudgetError) as info:
        subadditive_envelope(f, point(n))
    assert str(info.value) == f"the cover search exceeds its budget of {n - 1} residual x ground steps"
