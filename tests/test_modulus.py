import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import difference_bound_enumerate, modulus_enumerate
from isoprod import fileio
from isoprod.combiners import named_combiner
from isoprod.errors import OffLatticeError
from isoprod.fixtures import combiner_grid, sampled_combiner
from isoprod.metric import metric_preserving_verdict
from isoprod.modulus import (
    GridFunction,
    difference_bound_holds,
    is_fixed_point,
    modulus,
    modulus_table,
    nonconstant_wrt,
    _shifts,
)
from isoprod.points import point


def identity_line(cells=10, step=F(1, 4)):
    return GridFunction.from_callable(1, cells * step, step, lambda c: c[0])


def random_grid(rng, n=2, cells=4, step=F(1, 2)):
    values = {
        idx: F(rng.randint(0, 12), 4)
        for idx in itertools.product(range(cells + 1), repeat=n)
    }
    return GridFunction(n, cells * step, step, values)


def test_grid_function_validation(tmp_path):
    with pytest.raises(ValueError, match="divide"):
        GridFunction(1, F(1), F(3, 7), {})
    with pytest.raises(ValueError, match="missing"):
        GridFunction(1, 1, 1, {(0,): F(0)})
    with pytest.raises(ValueError, match="off-lattice"):
        GridFunction(1, 1, 1, {(0,): F(0), (1,): F(1), (7,): F(2)})
    g = GridFunction(1, 1, "1/2", {(0,): F(0), (1,): F(1), (2,): F(1)})
    assert g.value(point("1/2")) == 1
    with pytest.raises(OffLatticeError):
        g.value(point("1/3"))
    with pytest.raises(OffLatticeError):
        g.value(point(9))
    # a flat list would serve a negative index silently
    for outside in ((g.cells + 1,), (-1,), (0, 0)):
        with pytest.raises(KeyError):
            g.value_at(outside)
    # a Record of its lattice: the fields can be neither assigned nor deleted, and equality reads the
    # values cross-multiplied, so no grid function is hashable
    for name in ("n", "bound", "step", "cells"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g._values() == (1, 1, F(1, 2), 2)
    with pytest.raises(TypeError):
        hash(g)
    # a from_callable grid, the same grid loaded from its file, and the modulus tables of both
    made = GridFunction.from_callable(2, "3/2", "1/2", lambda c: c[0] * c[1] + c[1] / 3)  # not its own modulus
    fileio.dump_grid_function(made, tmp_path / "g.json")
    loaded = fileio.load_grid_function(tmp_path / "g.json")
    grids = [made, loaded, modulus_table(made), modulus_table(loaded)]
    assert [h._values() for h in grids] == [(2, F(3, 2), F(1, 2), 3)] * 4
    assert {type(h.n) for h in grids} == {type(h.cells) for h in grids} == {int} and loaded == made
    assert modulus_table(made) == modulus_table(loaded) != made


def test_modulus_examples():
    g = identity_line()
    assert modulus(g, point("3/4")) == F(3, 4)  # eps = 3h with h = 1/4
    assert modulus(g, point(0)) == 0
    const = GridFunction.from_callable(2, 2, F(1, 2), lambda c: F(7))
    for idx in const.indices():
        assert modulus(const, const.point(idx)) == 0


def test_modulus_table_agrees_with_direct_enumeration():
    rng = random.Random(246)
    for _ in range(8):
        g = random_grid(rng, n=rng.randint(1, 2), cells=rng.randint(2, 4))
        table = modulus_table(g)
        for idx in g.indices():
            eps = g.point(idx)
            direct = modulus(g, eps)
            assert table.value_at(idx) == direct
            assert direct == modulus_enumerate(g, eps)


def test_modulus_is_isotone_and_subadditive_on_lattice():
    rng = random.Random(135)
    for _ in range(6):
        g = random_grid(rng, n=2, cells=4)
        table = modulus_table(g)
        idx_list = list(g.indices())
        for x in idx_list:
            for y in idx_list:
                if all(a <= b for a, b in zip(x, y)):
                    assert table.value_at(x) <= table.value_at(y)
        for _ in range(40):
            x = tuple(rng.randint(0, 2) for _ in range(2))
            y = tuple(rng.randint(0, 2) for _ in range(2))
            s = tuple(a + b for a, b in zip(x, y))
            if all(c <= g.cells for c in s):
                assert table.value_at(s) <= table.value_at(x) + table.value_at(y)


def test_difference_bound_examples():
    assert difference_bound_holds(combiner_grid("SUM"))[0]
    assert difference_bound_holds(combiner_grid("MAX"))[0]
    square = GridFunction.from_callable(1, 2, F(1, 4), named_combiner("SQUARE_SUM"))
    ok, witness = difference_bound_holds(square)
    assert not ok
    x, y = witness
    fx, fy = square.value(x), square.value(y)
    gap = point(*(abs(a - b) for a, b in zip(x.coords, y.coords)))
    assert abs(fx - fy) > square.value(gap)


def bound_test_grid(rng, k, n, cells):
    """Arbitrary values when k % 3 == 0 (mostly violating), else a combiner grid that satisfies
    the difference bound with a few values nudged."""
    step = F(1, rng.choice([1, 2, 3]))
    idxs = list(itertools.product(range(cells + 1), repeat=n))
    if k % 3 == 0:
        values = {idx: F(rng.randint(0, 12), rng.choice([1, 2, 3, 4])) for idx in idxs}
    else:
        name = rng.choice(["SUM", "MAX", "CAPPED_SUM"])
        g = combiner_grid(name, n=n, bound=cells * step, step=step, cap=step * rng.randint(1, 3))
        values = {idx: g.value_at(idx) for idx in idxs}
        for _ in range(rng.randint(0, 2)):
            idx = rng.choice(idxs)
            values[idx] = max(F(0), values[idx] + F(rng.randint(-2, 2), rng.choice([2, 5])))
    return GridFunction(n, cells * step, step, values)


def test_difference_bound_agrees_with_full_square_scan():
    # verdict and witness against the x-major Fraction scan of every ordered pair; after 240
    # random shapes of n = 1-3, n = 4, where the shift scan recurses deepest, and lines up to 40 cells
    rng = random.Random(4242)
    cells_of = {1: 8, 2: 4, 3: 2}

    def shapes():
        for _ in range(240):
            n = rng.randint(1, 3)
            yield n, rng.randint(1, cells_of[n])
        yield from [(4, 1), (4, 2)] * 6 + [(1, cells) for cells in range(9, 41)]

    outcomes = set()
    for k, (n, cells) in enumerate(shapes()):
        g = bound_test_grid(rng, k, n, cells)
        witness = difference_bound_enumerate(g)
        assert difference_bound_holds(g) == (witness is None, witness)
        outcomes.add(witness is None)
    assert outcomes == {True, False}


def test_difference_bound_agrees_with_full_square_scan_on_larger_grids():
    # the lattice sizes of the benchmark grids and beyond: late first witnesses and full walks
    rng = random.Random(4243)
    shapes = [(1, 40), (1, 25), (2, 14), (2, 9), (3, 5), (3, 4)]
    outcomes = set()
    for k in range(24):
        g = bound_test_grid(rng, k, *shapes[k % len(shapes)])
        witness = difference_bound_enumerate(g)
        assert difference_bound_holds(g) == (witness is None, witness)
        outcomes.add(witness is None if witness is None else witness[0].is_origin())
    assert outcomes == {True, False}  # passing grids, and failing ones whose witness is not at the origin


def test_flat_code_table_agrees_with_enumeration_at_every_box():
    # 159 grids, n = 1-4, cells from 1 up (n = 1 up to 40, n = 2 up to 8), values of mixed
    # denominators; the oracle scans every pair at every box, so the larger shapes are few
    rng = random.Random(1203)
    shapes = (
        [(1, cells) for cells in range(1, 21)] * 3
        + [(2, cells) for cells in range(1, 4)] * 17 + [(2, 4), (2, 5), (2, 8)]
        + [(3, 1)] * 30 + [(3, 2)] * 8
        + [(4, 1)] * 4 + [(4, 2), (1, 30), (1, 40)]
    )
    for n, cells in shapes:
        step = F(1, rng.choice([1, 2, 3]))
        values = {
            idx: F(rng.randint(0, 30), rng.choice([1, 2, 3, 5, 7]))
            for idx in itertools.product(range(cells + 1), repeat=n)
        }
        g = GridFunction(n, cells * step, step, values)
        table = modulus_table(g)
        for idx in g.indices():
            eps = g.point(idx)
            assert table.value_at(idx) == modulus_enumerate(g, eps) == modulus(g, eps), (n, cells, idx)


@st.composite
def mixed_grids(draw):
    """A grid of n = 1-3 with values of mixed denominators, so the flat ints share a large one."""
    n = draw(st.integers(1, 3))
    cells = draw(st.integers(1, {1: 12, 2: 6, 3: 3}[n]))
    step = draw(st.sampled_from([F(1), F(1, 2), F(1, 3), F(2, 5)]))
    values = {idx: F(draw(st.integers(0, 30)), draw(st.sampled_from([1, 2, 3, 5, 7])))
              for idx in itertools.product(range(cells + 1), repeat=n)}
    return GridFunction(n, cells * step, step, values)


def assert_window_max_matches_table(g):
    table = modulus_table(g)
    for idx in g.indices():
        assert modulus(g, g.point(idx)) == table.value_at(idx), idx
    values = [v for _, v in g.items()]
    assert modulus(g, g.point((0,) * g.n)) == 0
    assert modulus(g, g.point((g.cells,) * g.n)) == max(values) - min(values)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(mixed_grids())
def test_window_max_modulus_agrees_with_the_table_at_every_box(g):
    # the separable window max against the pair-scan table; 150 derandomized examples, about 0.5 s
    assert_window_max_matches_table(g)


def test_window_max_modulus_agrees_with_the_table_on_the_benchmark_shapes():
    # n = 2 with 14 cells and n = 3 with 5: named combiners and random values, about 0.5 s
    rng = random.Random(1903)
    for n, cells, step in ((2, 14, F(1, 4)), (3, 5, F(1, 3))):
        assert_window_max_matches_table(combiner_grid("SQUARE_SUM", n=n, bound=cells * step, step=step))
        assert_window_max_matches_table(combiner_grid("CAPPED_SUM", n=n, bound=cells * step, step=step, cap=2))
        values = {idx: F(rng.randint(0, 40), rng.choice([1, 2, 3, 5, 7]))
                  for idx in itertools.product(range(cells + 1), repeat=n)}
        assert_window_max_matches_table(GridFunction(n, cells * step, step, values))


def test_fixed_point_examples():
    assert is_fixed_point(combiner_grid("SUM"))[0]
    assert is_fixed_point(combiner_grid("MAX"))[0]
    assert is_fixed_point(combiner_grid("CAPPED_SUM", cap=1))[0]
    ok, report = is_fixed_point(combiner_grid("SQUARE_SUM"))
    assert not ok
    assert report.max_deviation > 0 and report.at is not None


def test_square_modulus_value_on_line():
    # omega(x^2, eps) over [0, T] is 2*T*eps - eps^2, far from eps^2
    square = GridFunction.from_callable(1, 2, F(1, 4), named_combiner("SQUARE_SUM"))
    eps = F(1, 4)
    assert modulus(square, point(eps)) == 2 * 2 * eps - eps * eps
    assert square.value(point(eps)) == eps * eps


def test_fixed_point_idempotence():
    for name in ("SUM", "MAX", "CAPPED_SUM"):
        g = combiner_grid(name)
        table = modulus_table(g)
        assert table == g
        assert modulus_table(table) == table


def test_nonconstant_wrt():
    first_coord = GridFunction.from_callable(2, 2, F(1, 2), lambda c: c[0])
    assert nonconstant_wrt(first_coord, 1)
    assert not nonconstant_wrt(first_coord, 2)
    both = combiner_grid("SUM")
    assert nonconstant_wrt(both, 1) and nonconstant_wrt(both, 2)
    with pytest.raises(IndexError):
        nonconstant_wrt(both, 3)


def test_verdict_consistency_with_fixed_point():
    # the sampled-function verdict and the lattice fixed-point test tell
    # the same story for every named exact combiner
    axis = [F(k, 4) for k in range(9)]
    for name in ("SUM", "MAX", "CAPPED_SUM", "SQUARE_SUM"):
        grid_fn = combiner_grid(name)
        sampled = sampled_combiner(name, axis, n=2)
        verdict, _ = metric_preserving_verdict(sampled)
        fixed, _ = is_fixed_point(grid_fn)
        assert verdict == fixed


@st.composite
def grids_with_values(draw):
    """A grid of n = 1-3 and the dict it was built from: arbitrary values, or a
    linear function whose zero coefficients leave it constant along their axes."""
    n = draw(st.integers(1, 3))
    cells = draw(st.integers(1, {1: 8, 2: 4, 3: 2}[n]))
    step = draw(st.sampled_from([F(1), F(1, 2), F(1, 3)]))
    idxs = list(itertools.product(range(cells + 1), repeat=n))
    if draw(st.booleans()):
        values = {idx: draw(st.sampled_from([F(0), F(1, 2), F(1), F(5, 3)])) for idx in idxs}
    else:
        weights = [draw(st.sampled_from([F(0), F(1, 2), F(2)])) for _ in range(n)]
        values = {idx: sum(w * i for w, i in zip(weights, idx)) for idx in idxs}
    return GridFunction(n, cells * step, step, values), values


def test_flat_scans_agree_with_their_definitions():
    # nonconstant_wrt for every i against a line-by-line check of the dict the grid
    # was built from, and is_fixed_point against the first largest deviation from
    # oracles.modulus_enumerate; 200 derandomized examples, about 2 s
    seen = set()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(grids_with_values())
    def check(case):
        g, values = case
        m = g.cells + 1
        for i in range(1, g.n + 1):
            lines = itertools.product(range(m), repeat=g.n - 1)
            expected = any(len({values[rest[:i - 1] + (k,) + rest[i - 1:]] for k in range(m)}) > 1 for rest in lines)
            assert nonconstant_wrt(g, i) == expected
            seen.add(("nonconstant", expected))
        worst, at = F(0), None
        for idx in itertools.product(range(m), repeat=g.n):
            deviation = abs(modulus_enumerate(g, g.point(idx)) - values[idx])
            if deviation > worst:
                worst, at = deviation, g.point(idx)
        ok, report = is_fixed_point(g)
        assert (ok, report.max_deviation, report.at) == (worst == 0, worst, at)
        seen.add(("fixed point", ok))

    check()
    assert seen == {("nonconstant", True), ("nonconstant", False), ("fixed point", True), ("fixed point", False)}


def isotone_draw(rng, n, cells, kind, axis):
    """A grid of one of three kinds: isotone with arbitrary increments (each value the max of its
    predecessors plus a step of 0-5 units, the origin 1-4 units), an isotone combiner grid, or the
    first kind with one unit step along `axis` made to decrease by more than any gap of the grid:
    at a point whose one successor is that step, raised (in the last block that the axis leads),
    or at a point whose one predecessor is that step, lowered (in the first).  Only a scan of
    signed differences then finds the largest gap one step along the axis."""
    step = F(1, rng.choice([1, 2, 3]))
    idxs = list(itertools.product(range(cells + 1), repeat=n))
    if kind == "combiner":
        name = rng.choice(["SUM", "MAX", "CAPPED_SUM", "SQUARE_SUM"])
        g = combiner_grid(name, n=n, bound=cells * step, step=step, cap=step * rng.randint(1, 3))
        return g, {idx: g.value_at(idx) for idx in idxs}
    values, unit = {}, F(1, rng.choice([1, 2, 5]))
    for idx in idxs:
        below = [values[idx[:k] + (i - 1,) + idx[k + 1:]] for k, i in enumerate(idx) if i]
        values[idx] = max(below, default=rng.randint(1, 4) * unit) + rng.choice([0, 0, 1, 2, 5]) * unit
    if kind == "one decrease":
        drop = max(values.values()) - min(values.values()) + rng.randint(1, 6) * unit
        if rng.random() < 0.5:
            p = tuple(0 if k == axis else cells for k in range(n))
            values[p] = values[p[:axis] + (1,) + p[axis + 1:]] + drop
        else:
            values = {idx: v + drop for idx, v in values.items()}
            p = tuple(cells if k == axis else 0 for k in range(n))
            values[p] = values[p[:axis] + (cells - 1,) + p[axis + 1:]] - drop
    return GridFunction(n, cells * step, step, values), values


def decreasing_steps(values, n):
    """The (point, axis) of every unit step along one axis that decreases the values."""
    steps = ((idx, k, idx[:k] + (idx[k] + 1,) + idx[k + 1:]) for idx in values for k in range(n))
    return [(idx, k) for idx, k, up in steps if up in values and values[up] < values[idx]]


def test_isotone_path_agrees_with_the_oracles():
    # 150 derandomized grids of n = 1-4 (cells up to 10, 3, 2 and 1), a third of each kind of
    # isotone_draw, the decreasing step along each axis in turn: the table at every box (past 16
    # points at the full box, the unit boxes and 2 drawn ones), modulus and the difference bound's
    # verdict and witness against oracles.modulus_enumerate and difference_bound_enumerate; 0.7 s
    rng = random.Random(3232)
    cells_of = {1: 10, 2: 3, 3: 2, 4: 1}
    verdicts = set()
    for k in range(150):
        n = k // 3 % 4 + 1
        kind = ("arbitrary increments", "combiner", "one decrease")[k % 3]
        g, values = isotone_draw(rng, n, rng.randint(1, cells_of[n]), kind, axis=k // 12 % n)
        assert len(decreasing_steps(values, n)) == (kind == "one decrease"), (k, kind)
        table, idxs = modulus_table(g), list(g.indices())
        boxes = idxs if len(idxs) <= 16 else [idxs[-1], *(i for i in idxs if sum(i) == 1), *rng.sample(idxs, 2)]
        for idx in boxes:
            eps = g.point(idx)
            assert table.value_at(idx) == modulus_enumerate(g, eps) == modulus(g, eps), (k, kind, idx)
        witness = difference_bound_enumerate(g)
        assert difference_bound_holds(g) == (witness is None, witness), (k, kind)
        verdicts.add(witness is None)
    assert verdicts == {True, False}


def test_isotone_grids_scan_only_nonnegative_differences(monkeypatch):
    # on the benchmark shapes of SUM, the table and the bound each take the (cells + 1) ** n - 1
    # differences d >= 0, not every signed one; with the last point lowered below the points one
    # step before it, the table takes the ((2 cells + 1) ** n - 1) / 2 signed ones
    counts = []

    def counted(*args):
        counts.append(0)
        for item in _shifts(*args):
            counts[-1] += 1
            yield item

    monkeypatch.setattr("isoprod.modulus._shifts", counted)
    for n, cells in ((2, 14), (3, 5)):
        g = combiner_grid("SUM", n=n, bound=cells * F(1, 4), step=F(1, 4))
        counts.clear()
        modulus_table(g)
        assert difference_bound_holds(g) == (True, None)
        modulus_table(g._like([*g._int_values[:-1], 0]))
        assert counts == [(cells + 1) ** n - 1] * 2 + [((2 * cells + 1) ** n - 1) // 2]
