"""Drawn arguments of the verbs end in a verdict or an input error, never in exit 3.

Each example of the first test runs one of ``check``, ``extend-sup``, ``extend-amenable`` and
``envelope`` through ``dispatch`` on a small fixture function (dimension 1-3; raw, isotone or
amenable; one without the origin), as JSON or with --csv, with ``--probe`` strings and sometimes a
``--c``.  A probe is drawn from good points, points of the wrong dimension, empty and doubled commas,
negative and bad rationals, an exponent past the digit limit (``1e99999``), non-ASCII digits and
short junk text; ``--c`` from the same kinds of values.  ``check`` takes neither flag, and ``--c``
belongs to ``envelope`` alone, so those runs are usage errors.  The values stay small, so no cover
search comes near ``COVER_BUDGET``.  The 200 examples, derandomized, cost about 1.5 s of Tier-1.

The second test draws the other value arguments: ``omega --eps`` (lattice points and probe strings)
and ``nonconstant --var`` on grids of dimension 1-3, ``cantor refute-ce-triple --level`` from -2 to
``LEVEL_CAP`` + 1 and odd texts, and ``verify-metric --tol`` on a metric space and on a matrix whose
triangle fails by 1.  ``universal search --ce-level`` is left out: its level set takes about 15 s
at level 17, within ``LEVEL_CAP``.  Its 100 examples cost about 1 s.  Every run of either test exits
0, 1 or 2 within 2 s.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isoprod import fileio, fixtures
from isoprod.cantor import LEVEL_CAP
from isoprod.verbs import dispatch

VERBS = ("check", "extend-sup", "extend-amenable", "envelope")
# one spelling each of a good, a negative, a bad and an out-of-range rational, and non-ASCII digits
ODD_VALUES = ("0", "1", "1/2", "7/3", "2.5", " 1 ", "-1", "-1/2", "-0", "1/0", "x", "nan", "inf", "", "1e99999",
              "1e-99999", "1e3", "١", "٣/٤", "１", "½", "1_0", "0x10")
VALUES = st.one_of(st.sampled_from(ODD_VALUES), st.fractions(0, 4, max_denominator=6).map(str),
                   st.text(alphabet="(),[]/ -.ex1", max_size=4))


@st.composite
def probes(draw, dim):
    """A --probe string: half are good points of the function's dimension, a quarter such points with
    one odd coordinate, the rest any few values; in one of the spellings, a comma sometimes doubled."""
    kind = draw(st.integers(0, 3))
    if kind:
        coords = draw(st.lists(st.fractions(0, 4, max_denominator=6).map(str), min_size=dim, max_size=dim))
        if kind == 1:
            coords[draw(st.integers(0, dim - 1))] = draw(VALUES)
    else:
        coords = draw(st.lists(VALUES, max_size=dim + 1))
    body = ",".join(coords)
    if draw(st.integers(0, 9)) == 0:
        body = body.replace(",", ",,", 1)
    return draw(st.sampled_from(["({})", "({})", "[{}]", "{}", " ( {} ) ", "({},)"])).format(body)


@pytest.fixture(scope="module")
def functions(tmp_path_factory):
    root = tmp_path_factory.mktemp("argfuzz")
    paths = []
    for seed, (dim, mode) in enumerate(itertools.product((1, 2, 3), ("raw", "isotone", "amenable"))):
        paths.append((dim, str(fixture(root, seed, dim, mode))))
    return paths


def fixture(root, seed, dim, mode):
    path = root / f"f{seed}.json"
    fileio.dump_sampled_function(fixtures.random_sampled_function(random.Random(seed), dim=dim, size=5, mode=mode), path)
    return path


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_drawn_sampled_verb_arguments_never_exit_3(functions, data):
    dim, path = data.draw(st.sampled_from(functions))
    verb = data.draw(st.sampled_from(VERBS))
    argv = [verb, "--function", path]
    # mostly the flags each verb takes: check none, envelope --c half the time
    count = data.draw(st.integers(1, 3)) if verb != "check" else int(data.draw(st.integers(0, 9)) == 0)
    for _ in range(count):
        argv += ["--probe", data.draw(probes(dim))]
    if data.draw(st.integers(0, 9)) < (5 if verb == "envelope" else 1):
        argv += ["--c", data.draw(VALUES)]
    _exits_0_1_or_2(argv, data)


def _exits_0_1_or_2(argv, data):
    """argv, sometimes with --csv, exits 0, 1 or 2 within 2 s."""
    if data.draw(st.booleans()):
        argv.insert(0, "--csv")
    started = time.perf_counter()
    code, report = dispatch(argv)
    assert code in (0, 1, 2) and time.perf_counter() - started < 2, (argv, report)


@pytest.fixture(scope="module")
def grids_and_spaces(tmp_path_factory):
    """Grids of dimension 1-3 with their steps and cells, and a metric space and a matrix whose triangle fails by 1."""
    root = tmp_path_factory.mktemp("argfuzz-grids")
    grids = []
    for n, name, step, cells in ((1, "SUM", F(1, 3), 6), (2, "MAX", F(1, 2), 4), (3, "CAPPED_SUM", F(1), 2)):
        path = root / f"g{n}.json"
        fileio.dump_grid_function(fixtures.combiner_grid(name, n, cells * step, step), path)
        grids.append((n, step, cells, str(path)))
    spaces = [root / "space.json", root / "matrix.json"]
    fileio.dump_metric_space(fixtures.random_metric_space(random.Random(3), max_points=4), spaces[0])
    fileio.write_canonical_json(spaces[1], fileio.matrix_jsonable("abc", [[0, 1, 3], [1, 0, 1], [3, 1, 0]]))
    return grids, list(map(str, spaces))


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_drawn_grid_cantor_and_metric_arguments_never_exit_3(grids_and_spaces, data):
    grids, spaces = grids_and_spaces
    verb = data.draw(st.sampled_from(["omega", "nonconstant", "cantor refute-ce-triple", "verify-metric"]))
    if verb == "omega":
        n, step, cells, path = data.draw(st.sampled_from(grids))
        lattice = st.lists(st.integers(0, cells).map(lambda i: str(i * step)), min_size=n, max_size=n)
        eps = data.draw(st.one_of(lattice.map(lambda c: "({})".format(",".join(c))), probes(n)))
        argv = ["omega", "--grid", path, "--eps", eps]
    elif verb == "nonconstant":
        argv = ["nonconstant", "--grid", data.draw(st.sampled_from(grids))[3],
                "--var", data.draw(st.one_of(st.integers(-1, 4).map(str), VALUES))]
    elif verb == "verify-metric":
        argv = ["verify-metric", "--space", data.draw(st.sampled_from(spaces)), "--tol", data.draw(VALUES)]
    else:  # LEVEL_CAP takes about 0.4 s, LEVEL_CAP + 1 is refused at once
        argv = ["cantor", "refute-ce-triple", "--level", data.draw(st.one_of(st.integers(-2, LEVEL_CAP + 1).map(str), VALUES))]
    _exits_0_1_or_2(argv, data)
