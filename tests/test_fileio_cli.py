import csv
import io
import itertools
import json
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from isoprod import fileio
from isoprod.cli import dispatch, render
from isoprod.errors import IsoprodError, LoadError, OutOfRangeError
from isoprod.fixtures import combiner_grid, fixture_generate, random_metric_space, sampled_combiner
from isoprod.metric import FiniteMetricSpace
from isoprod.modulus import is_fixed_point
from isoprod.points import DENOMINATOR_DIGITS_CAP, point
from isoprod.sampled import SampledFunction
from isoprod.cantor import LEVEL_CAP, three_point_search, transcendental_embed
import random


def write_sum_function(path):
    f = sampled_combiner("SUM", [0, 1, 2], n=2)
    fileio.dump_sampled_function(f, path)
    return f


# -- file formats -------------------------------------------------------

def test_rational_round_trip():
    assert fileio.parse_rational("3/4") == F(3, 4)
    assert fileio.parse_rational("5") == 5
    assert fileio.format_rational(F(6, 4)) == "3/2"
    assert fileio.format_rational(F(8, 4)) == "2"
    assert [fileio.format_rational(v) for v in (7, True, False, 0.5, "6/4")] == ["7", "1", "0", "1/2", "3/2"]
    labels, dist = ["a", ("b", "c")], [[F(0), F(6, 4), 2], [True, 0.5, F(3, 2)]]
    assert fileio.matrix_jsonable(labels, dist) == {"labels": ["a", "b|c"], "dist": [["0", "3/2", "2"], ["1", 0.5, "3/2"]]}
    with pytest.raises(LoadError):
        fileio.parse_rational("eleven")
    with pytest.raises(LoadError):
        fileio.parse_rational("1/0")


LIMIT = sys.get_int_max_str_digits() or 4300
OVER_LIMIT = "9" * (LIMIT + 1)


def _fraction_parse(text):
    """Fraction(text), or its error wrapped as parse_rational wraps it."""
    try:
        return F(text)
    except (ValueError, ZeroDivisionError) as exc:
        return f"bad rational {text!r}: {exc}"


_DIGIT_RUNS = st.sampled_from(["", "0", "00", "7", "12", "0460", "1_0", "\u0663", "\U0001d7d9", "\u00b2"])
_RATIONAL_TEXTS = st.one_of(
    st.builds(
        "".join,
        st.lists(st.one_of(_DIGIT_RUNS, st.sampled_from(["/", "+", "-", "_", " ", "\t"])), max_size=6),
    ),
    st.builds(
        lambda num, den: num + den,
        st.sampled_from(["1", "9" * LIMIT, OVER_LIMIT, "0" * LIMIT + "1"]),
        st.sampled_from(["", "/0", "/3", "/" + OVER_LIMIT, "/" + "9" * LIMIT]),
    ),
)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(_RATIONAL_TEXTS)
@example("-3/4")
@example(" 3/4 ")
@example("1_000/3")
@example("\u0663/4")
@example("12/0")
@example("0/00")
@example(OVER_LIMIT + "/0")
@example("1/" + OVER_LIMIT)
def test_parse_rational_matches_the_fraction_parser(text):
    try:
        parsed = fileio.parse_rational(text)
    except LoadError as exc:
        parsed = str(exc)
    expected = _fraction_parse(text)
    assert parsed == expected and type(parsed) is type(expected)


def test_loaders_parse_each_distinct_string_once_per_call(tmp_path, monkeypatch):
    calls = []
    parse_rational = fileio.parse_rational
    monkeypatch.setattr(fileio, "parse_rational", lambda value: calls.append(value) or parse_rational(value))
    grid = {"n": 1, "T": "1", "h": "1/2", "values": [
        {"point": ["0"], "value": "0"}, {"point": ["1/2"], "value": "1"}, {"point": ["1"], "value": "1"}]}
    files = {
        "m.json": {"dist": [["0", "1/2", 1], ["1/2", "0", 1], [1, 1, "0"]]},
        "g.json": grid,
        "f.json": {"dim": 2, "entries": [{"point": ["0", "1/2"], "value": "1/2"}, {"point": ["1/2", "0"], "value": "1/2"}]},
        "s.json": ["1/3", "0", "1/3", "0"],
    }
    expected = {
        "m.json": ["0", "1/2", 1, 1, 1, 1],  # each string once, each JSON number every time
        "g.json": ["1", "1/2", "0"],
        "f.json": ["0", "1/2"],
        "s.json": ["1/3", "0"],
        "f.csv": ["0", "1/2", "1"],
    }
    (tmp_path / "f.csv").write_text("0,1/2,1\n1/2,0,1\n0,0,0\n")
    loaders = {"m": fileio.load_matrix, "g": fileio.load_grid_function, "f": fileio.load_sampled_function,
               "s": fileio.load_rational_set}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    for name, parsed in expected.items():
        for _ in range(2):  # the memo lives for one call: a second load parses again
            calls.clear()
            loaders[name[0]](tmp_path / name)
            assert calls == parsed, name


def test_loader_error_texts_are_pinned(tmp_path, monkeypatch):
    # the per-file parse memo and the coordinate index keep every loader error text
    full = [{"point": [f"{i}/2", f"{j}/2"], "value": str(i + j)} for i in range(3) for j in range(3)]

    def grid(values):
        return {"n": 2, "T": "1", "h": "1/2", "values": values}

    def sampled(*entries):
        return {"dim": len(entries[0][0]), "entries": [dict(zip(("point", "value"), e)) for e in entries]}

    off_then_bad = [{"point": ["1/3", "0"], "value": "1"}, *full[1:4], {"point": ["0", "1/2"], "value": "x/2"}, *full[5:]]
    cases = [
        (fileio.load_grid_function, grid(off_then_bad),
         LoadError, "{path}: values[4].value: bad rational 'x/2': Invalid literal for Fraction: 'x/2'"),
        (fileio.load_grid_function, grid(full + [{"point": ["1/2", "0"], "value": "7"}]),
         LoadError, "{path}: duplicate lattice point (1/2, 0)"),
        (fileio.load_grid_function, grid(full[:3] + [{"point": ["1"], "value": "1"}] + full[4:]),
         LoadError, "{path}: point dimension 1 != lattice dimension 2"),
        (fileio.load_grid_function, grid(full[:3] + [{"point": ["1/3", "0"], "value": "1"}] + full[4:]),
         LoadError, "{path}: (1/3, 0) is not a lattice point"),
        (fileio.load_grid_function, grid(full[:3] + [{"point": ["-1/2", "0"], "value": "1"}] + full[4:]),
         LoadError, "{path}: negative coordinate -1/2 not allowed"),
        (fileio.load_grid_function, grid(full[:3] + [{"point": ["1/2", "0"], "value": "-1"}] + full[4:]),
         LoadError, "{path}: negative value -1 at index (1, 0)"),
        (fileio.load_sampled_function, {"dim": 1, "entries": [{"point": ["0"], "value": "0"}, {"point": ["1"], "value": "-2"}]},
         LoadError, "{path}: negative value -2 at (1)"),
        # a sampled function file names the JSON path of a missing value or a bad rational; entry by
        # entry, the point before its value, and a point's own error where it comes first
        (fileio.load_sampled_function, sampled([["0"], "0"], [["1"]]),
         LoadError, '{path}: entries[1]: expected a "value" key'),
        (fileio.load_sampled_function, sampled([["0"], "0"], [["1"], None]),
         LoadError, "{path}: entries[1].value: expected a rational string, got None"),
        (fileio.load_sampled_function, sampled([["0", "0"], "0"], [["1/2", "x"], "1"], [["1", "1"], "y"]),
         LoadError, "{path}: entries[1].point[1]: bad rational 'x': Invalid literal for Fraction: 'x'"),
        (fileio.load_sampled_function, sampled([["0"], "1/0"], [["x"]]),
         LoadError, "{path}: entries[0].value: bad rational '1/0': Fraction(1, 0)"),
        (fileio.load_sampled_function, sampled([[True]], [["1"], "x"]),
         LoadError, "{path}: entries[0].point[0]: expected a rational, got boolean True"),
        (fileio.load_sampled_function, sampled([["-1"], "0"], [["x"], "1"]),
         LoadError, "{path}: negative coordinate -1 not allowed"),
        # the function checks its values and repeats once every entry is read
        (fileio.load_sampled_function, sampled([["1"], "-1"], [["1"], "x"]),
         LoadError, "{path}: entries[1].value: bad rational 'x': Invalid literal for Fraction: 'x'"),
        # a matrix or rational set file names the JSON path of its first bad rational, in row-major order
        (fileio.load_matrix, {"labels": ["a", "b"], "dist": [[0, 1], ["1", True]]},
         LoadError, "{path}: dist[1][1]: expected a rational, got boolean True"),
        (fileio.load_matrix, {"dist": [["0", "1/2"], ["1/2", 0.5]]},
         LoadError, "{path}: dist[1][1]: expected a rational string, got 0.5"),
        (fileio.load_matrix, {"dist": [["0", "1e5000"], ["1e5000", "0"]]},
         LoadError, f"{{path}}: dist[0][1]: bad rational '1e5000': exponent beyond {LIMIT}"),
        (fileio.load_matrix, {"dist": [["1/0", "1/0"], ["1/0", "1/0"]]},
         LoadError, "{path}: dist[0][0]: bad rational '1/0': Fraction(1, 0)"),
        (fileio.load_matrix, {"dist": [["0", "1", "2"], ["1", "0", "x"], ["2", "y", "x"]]},
         LoadError, "{path}: dist[1][2]: bad rational 'x': Invalid literal for Fraction: 'x'"),
        (fileio.load_matrix, {"dist": [["0", 1], [None, "x"]]},
         LoadError, "{path}: dist[1][0]: expected a rational string, got None"),
        (fileio.load_rational_set, ["1/0", "1/2", "1/0"],
         LoadError, "{path}: [0]: bad rational '1/0': Fraction(1, 0)"),
        (fileio.load_rational_set, {"values": ["0", "1/2", "1/3", "x", True]},
         LoadError, "{path}: values[3]: bad rational 'x': Invalid literal for Fraction: 'x'"),
        (fileio.load_rational_set, {"values": ["0", False]},
         LoadError, "{path}: values[1]: expected a rational, got boolean False"),
        # a probes file names the JSON path of its first bad rational
        (fileio.load_points, [["0", "1/2"], ["1", "x"], ["y"]],
         LoadError, "{path}: [1][1]: bad rational 'x': Invalid literal for Fraction: 'x'"),
        # labels that are no array; a string once split into one label per character
        (fileio.load_matrix, {"labels": 5, "dist": [["0"]]},
         LoadError, "{path}: labels: expected an array"),
        (fileio.load_matrix, {"labels": "ab", "dist": [["0", "1"], ["1", "0"]]},
         LoadError, "{path}: labels: expected an array"),
        # a dist or a row that is no array; a string or an object was once read one character
        # or one key at a time
        (fileio.load_matrix, {"dist": {"01": 1, "10": 2}},
         LoadError, "{path}: dist: expected an array"),
        (fileio.load_matrix, {"dist": 5},
         LoadError, "{path}: dist: expected an array"),
        (fileio.load_matrix, {"labels": ["x", "y"], "dist": ["01", "10"]},
         LoadError, "{path}: dist[0]: expected an array"),
        (fileio.load_matrix, {"dist": [["0", "1"], None]},
         LoadError, "{path}: dist[1]: expected an array"),
        # factors that are no array; a combiner file that is no path
        (fileio.load_product_spec, {"factors": "sp.json", "combiner": "SUM"},
         LoadError, "{path}: factors: expected an array"),
        (fileio.load_product_spec, {"factors": [], "combiner": {"file": 5}},
         LoadError, "{path}: combiner.file: expected a string"),
    ]
    for k, (loader, data, kind, text) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(data))
        with pytest.raises(kind) as info:
            loader(path)
        assert str(info.value) == text.format(path=path), k
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("0,1/3\n1,1/0\n2,1/0\n")
    with pytest.raises(LoadError) as info:
        fileio.load_sampled_function(csv_path)
    assert str(info.value) == f"{csv_path}:2: bad rational '1/0': Fraction(1, 0)"
    # a CSV row error names the file by the path as given, as every other load error does
    monkeypatch.chdir(tmp_path)
    with pytest.raises(LoadError) as info:
        fileio.load_sampled_function("./bad.csv")
    assert str(info.value) == "./bad.csv:2: bad rational '1/0': Fraction(1, 0)"
    # a file read as bytes is decoded as read_text decodes it: CR LF and a lone CR read as LF
    raw = {b'{"dim": 1,\r\n "entries": [}': "invalid JSON: Expecting value: line 2 column 14 (char 24)",
           b'{"dim": 1,\r\r\n"entries": "\r"}': "invalid JSON: Invalid control character at: line 3 column 13 (char 24)",
           b'{"dim":\r1, "entries": ["\xff"]}': "'utf-8' codec can't decode byte 0xff in position 24: invalid start byte"}
    for content, text in raw.items():
        csv_path.with_suffix(".json").write_bytes(content)
        with pytest.raises(LoadError) as info:
            fileio.load_recorded(fileio.load_sampled_function, csv_path.with_suffix(".json"), {})
        assert str(info.value) == f"{csv_path.with_suffix('.json')}: {text}"


# JSON entries that hash or compare alike (1, true, 1.0), that no dict can key (arrays, objects), and
# strings good and bad; the good strings come most often, so many matrices load
MATRIX_ENTRIES = ["1", "1", "2", "1/2", "0", "0", "2/4", 1, 2, 0, True, False, 1.0, 0.5, None, ["1"], {"1": 1}, "x", "1/0"]


def test_load_matrix_keeps_json_types_apart_and_errors_row_major(tmp_path):
    # the loader codes a matrix of strings by value: it must load what parsing each entry in
    # row-major order loads, or raise that parse's first error
    rng, outcomes = random.Random(2020), Counter()
    for k in range(400):
        n = rng.randint(1, 4)
        rows = [[rng.choice(MATRIX_ENTRIES[:7] if rng.random() < 0.6 else MATRIX_ENTRIES) for _ in range(n)]
                for _ in range(n)]
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps({"dist": rows}))
        for i, j in itertools.product(range(n), repeat=2):  # the first bad entry names its path
            try:
                fileio.parse_rational(rows[i][j])
            except LoadError as exc:
                expected = f"{path}: dist[{i}][{j}]: {exc}"
                break
        else:
            expected = [[fileio.parse_rational(v) for v in row] for row in rows]
        for values in (None, []):
            try:
                _, dist = fileio.load_matrix(path, values=values)
            except LoadError as exc:
                dist = str(exc)
            if values is not None and not isinstance(dist, str):
                dist = [[values[c] for c in row] for row in dist]
            assert dist == expected, rows
            if not isinstance(dist, str):
                assert {type(v) for row in dist for v in row} == {F}
        outcomes[expected.split(": ", 2)[2] if isinstance(expected, str) else "loaded"] += 1
    assert outcomes["loaded"] >= 50
    assert {"expected a rational, got boolean True", "expected a rational string, got 1.0",
            "expected a rational string, got None", "expected a rational string, got ['1']",
            "expected a rational string, got {'1': 1}", "bad rational '1/0': Fraction(1, 0)"} <= set(outcomes)
    # a matrix of JSON integers loads as its string twin does
    numbers = [[0, 3, 12], [3, 0, 9], [12, 9, 0]]
    twins = [tmp_path / "ints.json", tmp_path / "strings.json"]
    twins[0].write_text(json.dumps({"dist": numbers}))
    twins[1].write_text(json.dumps({"dist": [[str(v) for v in row] for row in numbers]}))
    assert fileio.load_matrix(twins[0]) == fileio.load_matrix(twins[1]) == (["0", "1", "2"], numbers)


def line(*entries, n=1, T="1", h="1"):
    """A grid file of (point, value) entries; a str or int point is one coordinate."""
    values = [{"point": p if isinstance(p, list) else [p], "value": v} for p, v in entries]
    return {"n": n, "T": T, "h": h, "values": values}


ON_LINE = (("0", "0"), ("1", "1"))
# (grid file, the LoadError text after the file name): one fault, then several at once, where the
# text shows which fault the loader reports first
GRID_ERRORS = [
    # single faults
    (line(*ON_LINE, n=0), "dimension must be at least 1"),  # "point dimension 1 != lattice dimension 0" once
    (line(*ON_LINE, n=-1), "dimension must be at least 1"),
    (line(("x", "0"), n=0, h="0"), "dimension must be at least 1"),  # checked where n is read
    (line(n=0), "dimension must be at least 1"),
    (line(*ON_LINE, h="0"), "bound and step must be positive"),
    (line(*ON_LINE, h="-1/2"), "bound and step must be positive"),
    (line(*ON_LINE, T="0"), "bound and step must be positive"),
    (line(("0", "0"), ("1", "1"), h="3/7"), "(1) is not a lattice point"),
    (line(("0", "0"), ("3/7", "1"), h="3/7"), "step 3/7 does not divide bound 1"),
    (line(("0", "0"), ("1", "1"), ("1", "2")), "duplicate lattice point (1)"),
    (line(("0", "0"), (1, "1"), ("1", "2")), "duplicate lattice point (1)"),  # a JSON number and a string
    (line(("0", "-1"), ("1", "1")), "negative value -1 at index (0,)"),
    (line(("0", "0"), ("2", "1"), T="2"), "missing lattice value at index (1,)"),
    (line(("0", "0")), "missing lattice values: 1 are too few for dimension n, as 2**n are needed"),
    (line(("0", "0"), ("-1", "1")), "negative coordinate -1 not allowed"),
    (line(("0", "0"), ([], "1")), "a point needs at least one coordinate"),
    (line(("0", "0"), (["0", "1"], "1")), "point dimension 2 != lattice dimension 1"),
    (line(("0", "0"), ("x", "1")), "values[1].point[0]: bad rational 'x': Invalid literal for Fraction: 'x'"),
    (line(("0", "0"), ("1", "1/0")), "values[1].value: bad rational '1/0': Fraction(1, 0)"),
    (line(("0", "0"), ("1", True)), "values[1].value: expected a rational, got boolean True"),
    (line(("0", "0"), ("1", None)), "values[1].value: expected a rational string, got None"),
    (line(("0", "0"), ("1", "1")) | {"values": [{"point": ["0"], "value": "0"}, {"point": ["1"]}]},
     'values[1]: expected a "value" key'),
    ({"n": 1, "h": "1", "values": [{"point": ["0"], "value": "0"}]}, 'expected a "T" key'),
    (line(*ON_LINE, h=None), "h: expected a rational string, got None"),
    # float, boolean, nested-array and object coordinates, also where an equal string was read before
    (line(("0", "0"), (0.5, "1")), "values[1].point[0]: expected a rational string, got 0.5"),
    (line(("0", "0"), ("1", "1"), (1.0, "1")), "values[2].point[0]: expected a rational string, got 1.0"),
    (line(("0", "0"), (True, "1")), "values[1].point[0]: expected a rational, got boolean True"),
    (line(("1", "0"), (True, "1")), "values[1].point[0]: expected a rational, got boolean True"),
    (line(("0", "0"), ([["1"]], "1")), "values[1].point[0]: expected a rational string, got ['1']"),
    (line(("0", "0"), ({"c": "1"}, "1")), "values[1].point[0]: expected a rational string, got {'c': '1'}"),
    # shapes
    ({"n": 1, "T": "1", "h": "1", "values": {}}, "values: expected an array"),
    (line(*ON_LINE) | {"values": [{"point": ["0"], "value": "0"}, ["1"]]}, "values[1]: expected an object"),
    (line(*ON_LINE) | {"values": [{"point": "0", "value": "0"}]}, "values[0].point: expected an array"),
    (line(*ON_LINE) | {"n": True}, "n: expected an integer"),
    # several faults: every entry is parsed before any is indexed
    (line(("1/3", "0"), ("x", "1")), "values[1].point[0]: bad rational 'x': Invalid literal for Fraction: 'x'"),
    (line(("1/3", "0"), ("1", "x")), "values[1].value: bad rational 'x': Invalid literal for Fraction: 'x'"),
    (line(("0", "0"), (["-1", "x"], "1"), n=2), "values[1].point[1]: bad rational 'x': Invalid literal for Fraction: 'x'"),
    (line(("0", "0"), (["-1", "0"], "x"), n=2), "negative coordinate -1 not allowed"),
    (line(("1/3", "0"), ("-1", "1")), "negative coordinate -1 not allowed"),
    (line(("1/3", "0"), ("1", "1"), h="0"), "bound and step must be positive"),
    (line(("1/3", "0"), ("1", "x"), h="0"), "values[1].value: bad rational 'x': Invalid literal for Fraction: 'x'"),
    (line(("1/2", "0"), ("1", "1"), h="0"), "bound and step must be positive"),
    # then entry by entry: the dimension, the lattice, a repeat
    (line(("2", "0"), (["0", "0"], "0"), ("0", "0")), "(2) is not a lattice point"),
    (line((["0", "0"], "0"), ("2", "0"), ("0", "0")), "point dimension 2 != lattice dimension 1"),
    (line(("0", "0"), ("0", "1"), ("1/2", "0")), "duplicate lattice point (0)"),
    (line(("0", "0"), ("1/2", "1"), ("0", "0")), "(1/2) is not a lattice point"),
    (line(("0", "-1"), ("1", "1"), ("1", "1")), "duplicate lattice point (1)"),
    (line(("0", "0"), ("1", "1"), ("3/7", "1"), h="3/7"), "(1) is not a lattice point"),
    # then the step, the dimension and the values in lattice order
    (line(("0", "-1"), ("3/7", "1"), h="3/7"), "step 3/7 does not divide bound 1"),
    (line((["0", "0"], "-1"), n=2), "missing lattice values: 1 are too few for dimension n, as 2**n are needed"),
    (line(("2", "-1"), ("0", "0"), T="2"), "missing lattice value at index (1,)"),
    (line(("2", "0"), ("1", "-1"), ("0", "-2"), T="2"), "negative value -2 at index (0,)"),
    (line(("1", "-1"), ("0", "0"), T="2"), "negative value -1 at index (1,)"),
    (line((["1", "1"], "-1/2"), (["0", "0"], "0"), (["0", "1"], "0"), (["1", "0"], "0"), n=2),
     "negative value -1/2 at index (1, 1)"),
]


@pytest.mark.parametrize("k", range(len(GRID_ERRORS)))
def test_grid_loader_error_texts_and_precedence_are_pinned(tmp_path, monkeypatch, k):
    # through the bulk pass, and through the entry-by-entry scan alone
    data, text = GRID_ERRORS[k]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    for scan_only in (False, True):
        if scan_only:
            monkeypatch.setattr(fileio, "_grid_codes", lambda *args: None)
        with pytest.raises(LoadError) as info:
            fileio.load_grid_function(path)
        assert str(info.value) == f"{path}: {text}"


def test_loaded_grids_keep_the_ints_they_were_written_from(tmp_path):
    # every grid fixture_generate writes, and a line written out of lattice order with JSON numbers
    for seed, combiner in enumerate(("SUM", "MAX", "CAPPED_SUM", "SQUARE_SUM") * 3):
        cap = F(seed % 3 + 1, 2)
        (path,) = fixture_generate("named-combiner-grid", seed, tmp_path, combiner=combiner, cap=cap)
        g, loaded = combiner_grid(combiner, cap=cap), fileio.load_grid_function(path)
        assert (loaded.n, loaded.bound, loaded.step, loaded.cells) == (g.n, g.bound, g.step, g.cells)
        assert (loaded._value_den, loaded._int_values) == (g._value_den, g._int_values)
    path = tmp_path / "line.json"
    path.write_text(json.dumps(line(("2", "1/3"), (0, 0), ("1/2", "1/2"), ("1", 2), ("3/2", "2/3"), T="2", h="1/2")))
    loaded = fileio.load_grid_function(path)
    assert (loaded._value_den, loaded._int_values) == (6, [0, 3, 12, 4, 2])


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


# unicode with control characters and lone surrogates, and str subclasses
_TEXT = st.text(st.one_of(st.characters(), st.characters(max_codepoint=0x1F),
                          st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, categories=["Cs"])), max_size=6)
_TEXTS = st.one_of(_TEXT, _TEXT.map(_Str))
_INTS = st.one_of(st.integers(-5, 5), st.integers(), st.integers(-10 ** 60, 10 ** 60), st.integers().map(_Int))
_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")]))
_SCALARS = st.one_of(_TEXTS, _INTS, _FLOATS, st.booleans(), st.none())
_KEYS = st.one_of(_TEXTS, _INTS, _FLOATS, st.booleans(), st.none())


def _containers(children, keys=_KEYS):
    lists = st.lists(children, max_size=5)
    dicts = st.dictionaries(keys, children, max_size=5)
    return st.one_of(lists, lists.map(tuple), lists.map(_List), st.lists(_TEXTS, max_size=8),
                     st.lists(_FLOATS, min_size=1, max_size=8), dicts, dicts.map(_Dict))


# one value in four also holds what json refuses: a set, bytes, a complex number or an object,
# or a tuple as a key
_REFUSED = st.sampled_from([{1}, b"x", 1j, object()])
_JSONISH = st.one_of(*[st.recursive(_SCALARS, _containers, max_leaves=20)] * 3, st.recursive(
    st.one_of(_SCALARS, _REFUSED), lambda children: _containers(children, st.one_of(_KEYS, st.tuples(_INTS))),
    max_leaves=20))


def _dumped(encode, obj):
    try:
        return encode(obj)
    except Exception as exc:  # the same type and message as json.dumps
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(_JSONISH)
@example({"matrix": [[0.0, float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 2.5e16], [1.5, _Float(2.0)]]})
def test_indented_json_writes_what_json_dumps_writes(obj):
    # 250 examples, about 2 s: the bytes of json.dumps(obj, indent=2), or its exception; lists of
    # floats only (with nan and +-inf) are one branch of the containers, and a float subclass
    # leaves a list to the item-by-item path
    assert _dumped(fileio.indented_json, obj) == _dumped(lambda o: json.dumps(o, indent=2), obj)


def test_indented_json_on_deep_and_self_containing_values():
    deep_list, deep_dict = ["x"], {"k": 1}
    for _ in range(150):  # deeper than the fast paths, within json.dumps's own recursion
        deep_list, deep_dict = [deep_list, 1], {"k": deep_dict, "": [deep_list]}
    for obj in (deep_list, deep_dict, [], {}, [[]], [{}], {"a": []}, [[], ["a"], "b"]):
        assert fileio.indented_json(obj) == json.dumps(obj, indent=2)
    looped, nested = [1, "a"], {"k": []}
    looped.append(looped)
    nested["k"].append(nested)
    twice = ["a"]  # in the same list twice, not inside itself
    for obj in (looped, nested, [twice, twice, [twice]]):
        assert _dumped(fileio.indented_json, obj) == _dumped(lambda o: json.dumps(o, indent=2), obj)
    assert _dumped(fileio.indented_json, looped) == (ValueError, "Circular reference detected")


def test_point_string_parsing():
    assert fileio.parse_point_string("(2,0)") == point(2, 0)
    assert fileio.parse_point_string("[2, 1/2]") == point(2, "1/2")
    assert fileio.parse_point_string("3") == point(3)
    assert fileio.parse_point_string("(1,)") == fileio.parse_point_string("1,") == point(1)
    # an empty coordinate is an input error that names the probe, not a point of lower dimension
    for text, error in (("()", "empty probe '()'"), ("  ", "empty probe '  '"),
                        ("(1,,2)", "empty coordinate in probe '(1,,2)'"), ("1,2,", "empty coordinate in probe '1,2,'"),
                        ("(1,2,)", "empty coordinate in probe '(1,2,)'"), ("(,1)", "empty coordinate in probe '(,1)'"),
                        ("(,)", "empty coordinate in probe '(,)'"), ("[1, ,2]", "empty coordinate in probe '[1, ,2]'")):
        with pytest.raises(LoadError) as info:
            fileio.parse_point_string(text)
        assert str(info.value) == error, text


def test_sampled_function_json_round_trip(tmp_path):
    path = tmp_path / "f.json"
    f = write_sum_function(path)
    assert fileio.load_sampled_function(path) == f
    data = json.loads(path.read_text())
    assert data["dim"] == 2
    assert all(isinstance(e["value"], str) for e in data["entries"])


def test_sampled_function_csv(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0,0,0\n1/2,0,1\n0,1,2\n")
    f = fileio.load_sampled_function(path)
    assert f.value(point("1/2", 0)) == 1
    dup = tmp_path / "dup.csv"
    dup.write_text("1,1,1\n1,1,2\n")
    with pytest.raises(LoadError, match="duplicate"):
        fileio.load_sampled_function(dup)


def test_sampled_function_point_errors_name_the_file(tmp_path):
    # a negative coordinate once escaped the loader as a bare ValueError without the path
    cases = {
        "neg.json": ('{"dim": 1, "entries": [{"point": ["-1"], "value": "1"}]}',
                     "LoadError: {path}: negative coordinate -1 not allowed"),
        "dim.json": ('{"dim": "x", "entries": [{"point": ["1"], "value": "1"}]}',
                     "LoadError: {path}: dim: expected an integer"),
        "neg.csv": ("0,0\n1,-1/2,1\n", "LoadError: {path}:2: negative coordinate -1/2 not allowed"),
    }
    for name, (text, error) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(LoadError):
            fileio.load_sampled_function(path)
        assert dispatch(["check", "--function", str(path)]) == (
            2, {"command": "check", "inputs": {}, "error": error.format(path=path)})


def test_sampled_function_duplicate_points_json(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "dim": 1,
        "entries": [
            {"point": ["1"], "value": "1"},
            {"point": ["1"], "value": "2"},
        ],
    }))
    with pytest.raises(LoadError, match="duplicate"):
        fileio.load_sampled_function(path)


def test_metric_space_round_trip(tmp_path):
    space = random_metric_space(random.Random(5))
    path = tmp_path / "m.json"
    fileio.dump_metric_space(space, path)
    assert fileio.load_metric_space(path) == space


def test_grid_function_round_trip(tmp_path):
    g = combiner_grid("SUM", n=1, bound=1, step="1/2")
    path = tmp_path / "g.json"
    fileio.dump_grid_function(g, path)
    assert fileio.load_grid_function(path) == g


def test_rational_set_round_trip(tmp_path):
    path = tmp_path / "s.json"
    fileio.dump_rational_set([F(1, 3), F(0), F(2)], path)
    assert fileio.load_rational_set(path) == [0, F(1, 3), 2]
    plain = tmp_path / "plain.json"
    plain.write_text('["0", "1/2"]')
    assert fileio.load_rational_set(plain) == [0, F(1, 2)]


def test_product_spec_file(tmp_path):
    a = FiniteMetricSpace(["a0", "a1"], [[0, 1], [1, 0]])
    b = FiniteMetricSpace(["b0", "b1"], [[0, 2], [2, 0]])
    fileio.dump_metric_space(a, tmp_path / "a.json")
    fileio.dump_metric_space(b, tmp_path / "b.json")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"factors": ["a.json", "b.json"], "combiner": "SUM"}))
    spec, paths = fileio.load_product_spec(spec_path)
    assert len(spec.factors) == 2 and len(paths) == 3


# -- CLI ----------------------------------------------------------------

def test_check_verb_all_true(tmp_path):
    path = tmp_path / "f.json"
    write_sum_function(path)
    code, report = dispatch(["check", "--function", str(path)])
    assert code == 0
    assert [v["ok"] for v in report["verdicts"]] == [True, True, True]
    assert report["command"] == "check"
    assert report["inputs"][str(path)].startswith("sha256:")


def test_check_verb_failing_function(tmp_path):
    path = tmp_path / "f.json"
    f = SampledFunction([(point(0, 0), 0), (point(1, 1), 2), (point(2, 2), 5)])
    fileio.dump_sampled_function(f, path)
    code, report = dispatch(["check", "--function", str(path)])
    assert code == 1
    by_name = {v["check"]: v for v in report["verdicts"]}
    assert by_name["isotone"]["ok"] and by_name["amenable"]["ok"]
    assert not by_name["subadditive"]["ok"]
    witness = by_name["subadditive"]["witness"]
    assert witness["target"] == ["2", "2"]
    assert F(witness["cost"]) < 5


def test_check_without_the_origin_skips_only_the_amenable_verdict(tmp_path):
    path = tmp_path / "f.json"
    fileio.dump_sampled_function(SampledFunction([(point(1), 1), (point(2), 3)]), path)
    code, report = dispatch(["check", "--function", str(path)])
    assert code == 1
    assert report["verdicts"][0] == {"check": "isotone", "ok": True}
    assert report["verdicts"][1] == {"check": "amenable", "ok": False, "skipped": "requires the origin as a sample point"}
    subadditive = report["verdicts"][2]
    assert subadditive["check"] == "subadditive" and not subadditive["ok"]
    assert subadditive["witness"]["target"] == ["2"] and subadditive["witness"]["cost"] == "2"


def test_envelope_verb_matches_library(tmp_path):
    path = tmp_path / "f.json"
    f = SampledFunction([(point(1, 0), 2), (point(0, 1), 3)])
    fileio.dump_sampled_function(f, path)
    code, report = dispatch(
        ["envelope", "--function", str(path), "--probe", "(2,0)"]
    )
    assert code == 0
    verdict = report["verdicts"][0]
    assert verdict["value"] == "4"
    assert verdict["certificate"]["parts"] == [{"point": ["1", "0"], "count": 2}]
    # witness re-verifies against the referenced input
    loaded = fileio.load_sampled_function(path)
    cost = sum(
        loaded.value(point(*part["point"])) * part["count"]
        for part in verdict["certificate"]["parts"]
    )
    assert str(cost) == verdict["value"]


def test_extension_verbs(tmp_path):
    path = tmp_path / "f.json"
    f = SampledFunction([(point(0, 0), 0), (point(1, 1), 4)])
    fileio.dump_sampled_function(f, path)
    code, report = dispatch(["extend-sup", "--function", str(path), "--probe", "(2,2)"])
    assert code == 0 and report["verdicts"][0]["value"] == "4"
    code, report = dispatch(
        ["extend-amenable", "--function", str(path), "--probe", "(1/2,0)"]
    )
    assert code == 0 and report["verdicts"][0]["value"] == "4"


def test_verify_metric_verb(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "labels": ["x", "y", "z"],
        "dist": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
    }))
    code, report = dispatch(["verify-metric", "--space", str(path)])
    assert code == 1
    witness = report["verdicts"][0]["witness"]
    assert witness["kind"] == "triangle" and witness["labels"] == ["x", "y", "z"]


def test_a_rectangular_matrix_is_an_input_error_that_names_its_file(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"dist": [["0", "1", "2"], ["1", "0", "1"]]}))
    code, report = dispatch(["verify-metric", "--space", str(path)])
    assert (code, report["error"]) == (2, f"LoadError: {path}: matrix is not square")


@pytest.mark.parametrize("distance", ["1e200", "1e-200"])
def test_sqrt_sum_sq_outside_the_float_range_is_an_input_error(tmp_path, distance):
    # the square of 1e200 overflows a float and once exited 3; that of 1e-200 underflows to 0
    # and once reported the false verdict that d(0,1) vanishes off the diagonal
    paths = [tmp_path / "one.json", tmp_path / "far.json"]
    for path, d in zip(paths, ("1", distance)):
        path.write_text(json.dumps({"labels": ["a", "b"], "dist": [["0", d], [d, "0"]]}))
    code, report = dispatch(["product", "--factor", str(paths[0]), "--factor", str(paths[1]),
                             "--combiner", "SQRT_SUM_SQ", "--verify"])
    where = f"(0, {fileio.format_rational(F(distance))})"
    assert (code, report["error"]) == (
        2, f"OutOfRangeError: SQRT_SUM_SQ at {where}: the sum of squares is no positive finite float")


def test_matrices_whose_dist_or_rows_are_no_arrays_are_input_errors(tmp_path):
    # both once read as [[0, 1], [1, 0]] and reported the metric axioms true
    good = tmp_path / "good.json"
    fileio.dump_metric_space(FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]]), good)
    for k, (data, what) in enumerate((({"labels": ["x", "y"], "dist": ["01", "10"]}, "dist[0]"),
                                      ({"dist": {"01": 1, "10": 2}}, "dist"))):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(data))
        error = f"LoadError: {path}: {what}: expected an array"
        for argv in (["verify-metric", "--space", str(path)],
                     ["product", "--factor", str(good), "--factor", str(path), "--combiner", "SUM"]):
            code, report = dispatch(argv)
            assert (code, report["error"]) == (2, error)


def test_product_and_extract_verbs(tmp_path):
    a = FiniteMetricSpace(["a0", "a1"], [[0, 1], [1, 0]])
    b = FiniteMetricSpace(["b0", "b1"], [[0, 2], [2, 0]])
    fileio.dump_metric_space(a, tmp_path / "a.json")
    fileio.dump_metric_space(b, tmp_path / "b.json")
    code, report = dispatch([
        "product", "--factor", str(tmp_path / "a.json"),
        "--factor", str(tmp_path / "b.json"), "--combiner", "SUM", "--verify",
    ])
    assert code == 0
    matrix = report["verdicts"][0]["matrix"]
    product_path = tmp_path / "prod.json"
    product_path.write_text(json.dumps(matrix))
    out_path = tmp_path / "extracted.json"
    code, report = dispatch([
        "extract", "--product", str(product_path),
        "--factor", str(tmp_path / "a.json"), "--factor", str(tmp_path / "b.json"),
        "--out", str(out_path),
    ])
    assert code == 0
    extracted = fileio.load_sampled_function(out_path)
    assert extracted.value(point(1, 2)) == 3
    # a product matrix of the wrong shape is an input error, extra columns included; the loader
    # refuses ragged rows
    dist = matrix["dist"]
    for bad, text in (
        (dist[:3], "IsoprodError: product of factor sizes is 4 but the matrix has 3 rows"),
        ([*dist[:2], dist[2] + ["1"], dist[3]], "LoadError: {path}: dist[2]: expected 4 entries as in dist[0], got 5"),
        ([*dist[:3], dist[3][:3]], "LoadError: {path}: dist[3]: expected 4 entries as in dist[0], got 3"),
    ):
        product_path.write_text(json.dumps({"dist": bad}))
        code, report = dispatch([
            "extract", "--product", str(product_path),
            "--factor", str(tmp_path / "a.json"), "--factor", str(tmp_path / "b.json"),
        ])
        assert (code, report["error"]) == (2, text.format(path=product_path))


def test_cantor_verbs():
    code, report = dispatch(["cantor", "member", "1/2"])
    assert code == 1 and not report["verdicts"][0]["ok"]
    code, report = dispatch(["cantor", "member", "1/3"])
    assert code == 0
    code, report = dispatch(["cantor", "decompose", "1/3"])
    assert code == 0
    x, y = (F(v) for v in report["verdicts"][0]["witness"])
    assert x - y == F(1, 3)
    code, report = dispatch(["cantor", "ce-member", "9"])
    assert code == 0
    code, report = dispatch(["cantor", "refute-ce-triple", "--level", "4"])
    assert code == 0 and report["verdicts"][0]["report"]["gap_holds"]
    code, report = dispatch(["cantor", "decompose", "1/2"])
    assert code == 2 and "NonTriadic" in report["error"]


def test_universal_and_embed_verbs(tmp_path):
    code, report = dispatch(["universal", "search", "--ce-level", "4", "--a", "1/3", "--b", "1/6"])
    assert code == 1
    code, report = dispatch(["universal", "search", "--ce-level", "4", "--a", "1/3", "--b", "1/3"])
    assert code == 0
    assert [F(v) for v in report["verdicts"][0]["witness"]] == [0, F(1, 3), F(2, 3)]

    set_path = tmp_path / "set.json"
    fileio.dump_rational_set([F(-2), F(1, 3), F(5)], set_path)
    code, report = dispatch(["embed", "--set", str(set_path)])
    assert code == 0
    images = report["verdicts"][0]["images"]
    assert images["1/3"] == {"q": "1/3", "r": "1"}


def test_embed_verdict_matches_sorted_pairwise_distances(tmp_path):
    rng = random.Random(808)
    set_path = tmp_path / "set.json"
    for size in (0, 1, 2, 5, 17, 56):
        values = [F(rng.randint(-500, 500), rng.randint(1, 40)) for _ in range(size)]
        values += values[: size // 4]  # repeated values
        set_path.write_text(json.dumps([str(v) for v in values]), encoding="utf-8")
        code, report = dispatch(["embed", "--set", str(set_path)])
        images = transcendental_embed(values)
        original = sorted(abs(a - b) for a in values for b in values)
        shifted = sorted(abs((images[a] - images[b]).q) for a in values for b in values)
        reference = original == shifted and all(not img.is_rational() for img in images.values())
        verdict = report["verdicts"][0]
        assert reference
        assert code == 0 and verdict["ok"] == reference
        assert list(verdict["images"]) == [str(v) for v in sorted(set(values))]


def test_level_flag_defaults():
    code, report = dispatch(["universal", "search", "--a", "1/3", "--b", "1/6"])
    assert code == 1
    assert "ce-level-8" in report["verdicts"][0]["check"]
    code, report = dispatch(["universal", "search", "--ce-level", "zebra", "--a", "1/3", "--b", "1/6"])
    assert code == 2
    code, report = dispatch(["cantor", "refute-ce-triple"])
    assert code == 0 and report["verdicts"][0]["check"] == "refute-ce-triple[level=10]"


def test_levels_past_the_cap_are_input_errors(tmp_path):
    # one level past the cap only: a level builds 2^level intervals before it answers
    past = str(LEVEL_CAP + 1)
    error = f"OutOfRangeError: level {past} exceeds the level cap {LEVEL_CAP}: it would build 2^{past} intervals"
    runs = [
        ["cantor", "refute-ce-triple", "--level", past],
        ["universal", "search", "--ce-level", past, "--a", "1/3", "--b", "1/6"],
        ["fixture", "--kind", "ce-level-set", "--level", past, "--out", str(tmp_path)],
    ]
    for argv in runs:
        code, report = dispatch(argv)
        assert code == 2 and report["error"] == error
    assert not list(tmp_path.iterdir())


def test_products_past_the_cap_are_input_errors(tmp_path, monkeypatch):
    # five 8-point factors make 32,768 product points: product refuses them at the cap and extract at
    # the row count, before a code grid is built; each takes a few ms in-process, and 2 s leaves
    # room for the first dispatch's imports on a slow machine
    from isoprod import metric

    line = FiniteMetricSpace([str(i) for i in range(8)], [[abs(i - j) for j in range(8)] for i in range(8)])
    fileio.dump_metric_space(line, tmp_path / "line.json")
    fileio.dump_metric_space(FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]]), tmp_path / "pair.json")
    (tmp_path / "spec.json").write_text(json.dumps({"factors": ["line.json"] * 5, "combiner": "SUM"}))
    factors = [arg for _ in range(5) for arg in ("--factor", str(tmp_path / "line.json"))]
    monkeypatch.setattr(metric, "_distance_codes", lambda factors: pytest.fail("a code grid was built"))
    cap = f"product of factor sizes 32768 exceeds the product cap {metric.PRODUCT_CAP}: it would build 32768^2 matrix entries"
    runs = [
        (["product", *factors, "--combiner", "SUM", "--verify"], f"OutOfRangeError: {cap}"),
        (["product", "--spec", str(tmp_path / "spec.json")], f"LoadError: {tmp_path / 'spec.json'}: {cap}"),
        (["extract", "--product", str(tmp_path / "pair.json"), *factors],
         "IsoprodError: product of factor sizes is 32768 but the matrix has 2 rows"),
    ]
    for argv, error in runs:
        started = time.perf_counter()
        code, report = dispatch(argv)
        assert (code, report["error"]) == (2, error) and time.perf_counter() - started < 2, argv
    with pytest.raises(IsoprodError, match="the matrix has 2 rows"):
        metric.is_distance_increasing([[0, 1], [1, 0]], [line] * 5)
    # at the cap a spec is built; one point past it is refused
    lines = {n: FiniteMetricSpace(list(map(str, range(n))), [[abs(i - j) for j in range(n)] for i in range(n)])
             for n in (2, 5, 41)}
    assert len(metric.ProductSpec((lines[2],) * 10, max).factors) == 10  # 1024 points
    with pytest.raises(OutOfRangeError, match="product of factor sizes 1025 exceeds"):
        metric.ProductSpec((lines[41], lines[5], lines[5]), max)


def test_common_denominators_past_the_cap_are_input_errors(tmp_path):
    # a 1-D function at 0 and at 1/10**3999, 1/3**8000 and 1/7**c, each valued 1: their common
    # denominator has DENOMINATOR_DIGITS_CAP digits, and one past it with 1/7**(c + 1); every
    # denominator has at most 4,000 digits, so each value alone parses.  The refusal takes a few
    # ms in-process (the loads are about 20 ms each), and 2 s leaves room for a slow machine
    low = 10 ** (DENOMINATOR_DIGITS_CAP - 4000)  # 10 ** 3999 times this has DENOMINATOR_DIGITS_CAP digits
    sevens = 1
    while 3 ** 8000 * sevens < low:
        sevens *= 7
    runs = []
    for k, last in enumerate((sevens, 7 * sevens)):
        path = tmp_path / f"f{k}.json"
        dens = [10 ** 3999, 3 ** 8000, last]
        path.write_text(json.dumps({"dim": 1, "entries": [{"point": ["0"], "value": "0"}] + [
            {"point": [f"1/{d}"], "value": "1"} for d in dens]}))
        started = time.perf_counter()
        runs.append((*dispatch(["extend-sup", "--function", str(path), "--probe", "1"]), time.perf_counter() - started))
    (code, report, _), (past, refused, seconds) = runs
    assert code == 0 and report["verdicts"][0]["value"] == "1"
    assert (past, refused["error"], refused["inputs"]) == (
        2, f"LoadError: {tmp_path / 'f1.json'}: the common denominator exceeds the cap of {DENOMINATOR_DIGITS_CAP} digits", {})
    assert seconds < 2


def test_fixture_sizes_past_their_caps_are_input_errors(tmp_path, monkeypatch):
    # refused before the first draw (a draw raises inside dispatch, which would exit 3) and with
    # no large allocation; each takes well under 1 ms in-process, and 2 s leaves room for a slow machine
    import tracemalloc
    from isoprod import fixtures

    assert dispatch(["fixture", "--kind", "random-sampled-function", "--out", str(tmp_path)])[0] == 0  # imports done

    class NoDraws(random.Random):
        def random(self, *args):
            raise AssertionError("a fixture drew before its cap check")

        getrandbits = random

    monkeypatch.setattr(fixtures.random, "Random", NoDraws)
    points = "points exceed the fixture cap 64 (up to"
    runs = [
        (["--kind", "random-metric-space", "--max-points", "65"], f"65 {points} 65^3 steps)"),
        (["--kind", "random-metric-space", "--max-points", str(10 ** 12)], f"{10 ** 12} {points} {10 ** 12}^3 steps)"),
        (["--kind", "random-sampled-function", "--dim", "65"], "dimension 65 exceeds the fixture dimension cap 64"),
        (["--kind", "random-sampled-function", "--dim", str(10 ** 9), "--size", "200", "--mode", "amenable"],
         f"dimension {10 ** 9} exceeds the fixture dimension cap 64"),
    ]
    for argv, error in runs:
        tracemalloc.start()
        started = time.perf_counter()
        code, report = dispatch(["fixture", *argv, "--out", str(tmp_path)])
        elapsed, peak = time.perf_counter() - started, tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (code, report["error"]) == (2, f"OutOfRangeError: {error}") and elapsed < 2 and peak < 1 << 20, argv
    monkeypatch.undo()
    # at the caps the generators run: 64 coordinates, and up to 64 points (seed 2 draws 8)
    assert fixtures.random_sampled_function(random.Random(0), dim=fixtures.DIM_CAP, size=2).dim == 64
    assert fixtures.random_metric_space(random.Random(2), max_points=fixtures.POINTS_CAP).size == 8


def test_a_recorded_load_reads_its_file_once_and_digests_the_bytes_it_parsed(tmp_path, monkeypatch):
    # each loader rewrites its files once it has parsed them: the digests recorded are those of the
    # bytes parsed, so a second read would show; opens are counted at io.open (pathlib's) and open.
    # A JSON function, a CSV function and a product spec with two factors and a combiner file: each
    # file is opened once, and recorded under the path it was read by, in read order; so is a
    # --probes file, after its function
    import builtins
    import hashlib

    f = write_sum_function(tmp_path / "f.json")
    csv_path = tmp_path / "f.csv"
    csv_path.write_text("".join(",".join([*fileio.format_point(p), str(v)]) + "\r\n" for p, v in f.items()), newline="")
    probes = tmp_path / "p.json"
    probes.write_text(json.dumps([["1", "1/2"], ["3", "0"]]))
    for name, dist in (("a.json", [[0, 1], [1, 0]]), ("b.json", [[0, 2], [2, 0]])):
        fileio.dump_metric_space(FiniteMetricSpace(["0", "1"], dist), tmp_path / name)
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"factors": ["a.json", "b.json"], "combiner": {"file": "f.json"}}))
    files = [spec, tmp_path / "a.json", tmp_path / "b.json", tmp_path / "f.json"]
    parsed, opened, real_open = {p: p.read_bytes() for p in [*files, csv_path, probes]}, [], io.open
    digests = {str(p): "sha256:" + hashlib.sha256(data).hexdigest() for p, data in parsed.items()}

    def counted(file, *args, **kwargs):
        opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    def rewriting(load, paths):
        def loader(p):
            loaded = load(p)
            opens = list(map(opened.count, paths))
            for path in paths:
                path.write_text("{}")
            return loaded, opens
        return loader

    def restore():
        for path, data in parsed.items():
            path.write_bytes(data)
        opened.clear()

    monkeypatch.setattr(io, "open", counted)
    monkeypatch.setattr(builtins, "open", counted)
    for path in (files[-1], csv_path):
        inputs = {}
        assert fileio.load_recorded(rewriting(fileio.load_sampled_function, [path]), path, inputs) == (f, [1])
        assert inputs == {str(path): digests[str(path)]}
        restore()
    inputs = {}
    (product, paths), opens = fileio.load_recorded(rewriting(fileio.load_product_spec, files), spec, inputs)
    assert paths == files and opens == [1] * 4 and product.combiner == f
    assert list(inputs.items()) == [(str(p), digests[str(p)]) for p in files]
    runs = [(["check", "--function", str(files[-1])], [files[-1]]), (["check", "--function", str(csv_path)], [csv_path]),
            (["product", "--spec", str(spec), "--verify"], files),
            (["extend-sup", "--function", str(files[-1]), "--probes", str(probes)], [files[-1], probes])]
    for argv, paths in runs:
        restore()
        code, report = dispatch(argv)
        assert code == 0 and list(map(opened.count, paths)) == [1] * len(paths), argv
        assert list(report["inputs"].items()) == [(str(p), digests[str(p)]) for p in paths], argv
    monkeypatch.chdir(tmp_path)  # the spec under the path as given, its files under the paths they were read by
    assert list(dispatch(["product", "--spec", "./s.json"])[1]["inputs"]) == ["./s.json", "a.json", "b.json", "f.json"]
    files[-1].write_text("{}")  # a load that fails records none of the files it read
    inputs = {}
    with pytest.raises(LoadError, match="f.json: entries"):
        fileio.load_recorded(fileio.load_product_spec, spec, inputs)
    assert inputs == {}


def test_csv_is_rendered_as_the_parse_reads_the_flag(capsys):
    # --cs abbreviates --csv, and a --csv after -- is a value; after a parse error only a leading
    # --csv counts, as verbs._parse reads the flag
    from isoprod.verbs import main

    cases = [
        (["--cs", "cantor", "member", "1/4"], 0, True),
        (["cantor", "member", "--", "--csv"], 2, False),
        (["--csv", "cantor", "member", "1/4", "--bogus"], 2, True),
        (["cantor", "member", "1/4", "--csv"], 2, False),
        (["--csv", "cantor", "member", "1/4"], 0, True),
    ]
    for argv, code, as_csv in cases:
        assert main(argv) == code, argv
        out = capsys.readouterr().out
        assert out.startswith("check,ok,detail\n") == as_csv, argv
        if not as_csv:
            json.loads(out)


def test_grid_verbs(tmp_path):
    grid_path = tmp_path / "g.json"
    fileio.dump_grid_function(combiner_grid("SUM"), grid_path)
    code, report = dispatch(["omega", "--grid", str(grid_path), "--eps", "(1/4,1/4)"])
    assert code == 0 and report["verdicts"][0]["value"] == "1/2"
    code, report = dispatch(["fixed-point", "--grid", str(grid_path)])
    assert code == 0
    code, report = dispatch(["lemma42", "--grid", str(grid_path)])
    assert code == 0
    square_path = tmp_path / "sq.json"
    fileio.dump_grid_function(combiner_grid("SQUARE_SUM"), square_path)
    code, report = dispatch(["fixed-point", "--grid", str(square_path)])
    assert code == 1
    assert F(report["verdicts"][0]["max_deviation"]) > 0


def test_a_grid_dimension_beyond_its_values_is_refused_before_any_index_is_built(tmp_path):
    # n = 10**6 once took 44 MB and printed a 3 MB index; a lattice has at least 2**n points
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 1000000, "T": "1", "h": "1", "values": []}))
    code, report = dispatch(["lemma42", "--grid", str(path)])
    assert code == 2 and len(render(report)) < 1024
    assert report["error"] == (
        f"LoadError: {path}: missing lattice values: 0 are too few for dimension n, as 2**n are needed")
    # one entry of 1,000 coordinates 1 on an axis of 10**4000 + 1 points: flat codes, whose cost
    # grows as n ** 2 with 13,000-bit factors, took over a minute; the index tuple takes
    # milliseconds, and 2 s leaves room for a slow machine
    path.write_text(json.dumps({"n": 1000, "T": "1" + "0" * 4000, "h": "1", "values": [{"point": ["1"] * 1000, "value": "0"}]}))
    started = time.perf_counter()
    code, report = dispatch(["lemma42", "--grid", str(path)])
    assert time.perf_counter() - started < 2
    assert (code, report["error"]) == (
        2, f"LoadError: {path}: missing lattice values: 1 are too few for dimension n, as 2**n are needed")
    # three points on a line and two values: the dimension fits, and the missing index is named
    path.write_text(json.dumps({"n": 1, "T": "2", "h": "1", "values": [
        {"point": ["0"], "value": "0"}, {"point": ["2"], "value": "1"}]}))
    code, report = dispatch(["lemma42", "--grid", str(path)])
    assert (code, report["error"]) == (2, f"LoadError: {path}: missing lattice value at index (1,)")


def test_exit_code_2_cases(tmp_path):
    code, report = dispatch(["no-such-verb"])
    assert code == 2
    missing = tmp_path / "nope.json"
    code, report = dispatch(["check", "--function", str(missing)])
    assert code == 2 and "error" in report
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = dispatch(["check", "--function", str(bad)])
    assert code == 2
    # a probes file that is no JSON array of points, or no JSON at all, names itself
    function = tmp_path / "f.json"
    write_sum_function(function)
    number = tmp_path / "probes.json"
    number.write_text("5")
    for probes, error in (
        (number, f"LoadError: {number}: expected an array of points"),
        (bad, f"LoadError: {bad}: invalid JSON: Expecting property name enclosed in double quotes"),
    ):
        code, report = dispatch(["extend-sup", "--function", str(function), "--probes", str(probes)])
        assert code == 2 and report["error"].startswith(error)


def test_internal_error_exits_3(tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("broken handler")

    # the handler is imported by name when the verb runs, and loads its file by fileio.load_recorded
    monkeypatch.setattr(fileio, "load_recorded", broken)
    path = tmp_path / "f.json"
    write_sum_function(path)
    code, report = dispatch(["check", "--function", str(path)])
    assert code == 3
    assert report == {
        "command": "check",
        "inputs": {},
        "error": "internal error: RuntimeError: broken handler",
    }


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    from isoprod import verbs

    path = tmp_path / "f.json"
    write_sum_function(path)
    runs = [
        dispatch(["extend-sup", "--function", str(path), "--probe", "(1,1)", "--probe", "(2,0)"]),
        dispatch(["extend-sup", "--function", str(path), "--probe", "(0,2)"]),
        dispatch(["extend-sup", "--function", str(path)]),
    ]
    checks = [[v["check"] for v in report.get("verdicts", [])] for _, report in runs]
    assert checks == [["extend-sup(1, 1)", "extend-sup(2, 0)"], ["extend-sup(0, 2)"], []]
    # no --probe is left over from the earlier calls
    assert runs[2][1]["error"] == "IsoprodError: no probes given; use --probe or --probes"
    assert verbs._parser() is verbs._parser()


def test_deep_cover_search_is_no_false_verdict(tmp_path):
    # 1,200 ground elements once took the recursive cover search past the
    # recursion limit; the residual table answers with the all-ones cover
    path = tmp_path / "line.json"
    fileio.dump_sampled_function(SampledFunction([(point(t), t) for t in range(1200)]), path)
    code, report = dispatch(["envelope", "--function", str(path), "--probe", "1199"])
    assert code == 0
    verdict = report["verdicts"][0]
    assert verdict["value"] == "1199"
    assert verdict["certificate"]["parts"] == [{"point": ["1"], "count": 1199}]


def test_tolerance_is_an_exact_nonnegative_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "labels": ["x", "y", "z"],
        "dist": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]],
    }))
    for tol, error in (
        ("nan", "LoadError"), ("inf", "LoadError"), ("-inf", "LoadError"),
        ("-1", "OutOfRangeError"), ("-1/10", "OutOfRangeError"),
        ("1e4000000", "LoadError: bad rational '1e4000000': exponent beyond"),
    ):
        code, report = dispatch(["verify-metric", "--space", str(path), f"--tol={tol}"])
        assert code == 2 and "verdicts" not in report, tol
        assert report["error"].startswith(error), tol
    near = tmp_path / "near.json"
    near.write_text(json.dumps({"labels": ["x", "y"], "dist": [["0", "1"], ["21/20", "0"]]}))
    assert dispatch(["verify-metric", "--space", str(near), "--tol", "1/10"])[0] == 0
    assert dispatch(["verify-metric", "--space", str(near), "--tol", "1/25"])[0] == 1
    assert dispatch(["verify-metric", "--space", str(near)])[0] == 1


def test_oversized_rationals_are_input_errors(tmp_path):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        _check_oversized_rationals(tmp_path)
    finally:
        sys.set_int_max_str_digits(limit)


def _check_oversized_rationals(tmp_path):
    for text in ("1e5000", "1E+5000", "1e-5000", "1e4300", "0." + "0" * 4300 + "1"):
        with pytest.raises(LoadError):
            fileio.parse_rational(text)
    assert fileio.parse_rational("1e4299") == 10 ** 4299
    code, report = dispatch(["cantor", "member", "1e5000"])
    assert code == 2
    assert report["error"] == "LoadError: bad rational '1e5000': exponent beyond 4300"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 1, "entries": [
        {"point": ["0"], "value": "0"}, {"point": ["1"], "value": "1e5000"}]}))
    code, report = dispatch(["check", "--function", str(path)])
    assert code == 2
    assert report["error"].startswith(f"LoadError: {path}: entries[1].value: bad rational '1e5000'")


def test_reports_are_stable(tmp_path):
    path = tmp_path / "f.json"
    write_sum_function(path)
    _, first = dispatch(["check", "--function", str(path)])
    _, second = dispatch(["check", "--function", str(path)])
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second
    # serialize -> parse is the identity
    assert json.loads(json.dumps(first)) == first


def test_csv_rendering(tmp_path):
    path = tmp_path / "f.json"
    write_sum_function(path)
    _, report = dispatch(["check", "--function", str(path)])
    text = render(report, as_csv=True)
    lines = text.splitlines()
    assert lines[0] == "check,ok,detail"
    assert lines[1].startswith("isotone,true")


def test_csv_fields_read_back_through_the_csv_module(tmp_path):
    path = tmp_path / "f.json"
    write_sum_function(path)
    argv = ["--csv", "extend-sup", "--function", str(path), "--probe", "(1,1)", "--probe", "(2,1/2)"]
    code, report = dispatch(argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(render(report, as_csv=True))))
    assert rows == [
        ["check", "ok", "detail"],
        ["extend-sup(1, 1)", "true", '{"value":"2"}'],
        ["extend-sup(2, 1/2)", "true", '{"value":"2"}'],
    ]
    # an error text holding a quote and a comma stays one field
    code, report = dispatch(["--csv", "cantor", "member", 'a"b,c'])
    assert code == 2
    rows = list(csv.reader(io.StringIO(render(report, as_csv=True))))
    assert rows[1:] == [["error", "false", report["error"]]]


def test_help_exits_zero_with_the_usage_text_only():
    result = subprocess.run(
        [sys.executable, "-m", "isoprod", "--help"], capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("usage: isoprod")
    assert "unrecognized arguments" not in result.stdout
    assert result.stderr == ""


def test_every_verb_answers_help_and_a_bad_verb_lists_them_all(capsys):
    from isoprod.verbs import GROUP_HELP, VERBS

    helps = [*GROUP_HELP.values(), *(text for _, text, _, _ in VERBS if text)]
    table = [("", helps)] + [(group, ()) for group in GROUP_HELP] + [(command, arguments) for command, _, _, arguments in VERBS]
    for command, shown in table:
        with pytest.raises(SystemExit) as info:
            dispatch([*command.split(), "--help"])
        assert info.value.code == 0, command
        text = " ".join(capsys.readouterr().out.split())
        assert text.startswith(" ".join(["usage: isoprod", *command.split(), "[-h]"])), command
        assert all(name in text for name in shown), command
    verbs = ("'check', 'extend-sup', 'extend-amenable', 'envelope', 'verify-metric', 'product', 'extract', "
             "'witness-unbounded', 'omega', 'fixed-point', 'lemma42', 'nonconstant', 'cantor', 'universal', 'embed', 'fixture'")
    cantor = "'member', 'ce-member', 'decompose', 'ce-decompose', 'refute-ce-triple'"
    for argv, error in ((["nosuchverb"], f"argument verb: invalid choice: 'nosuchverb' (choose from {verbs})"),
                        (["cantor", "nope"], f"argument cantor_verb: invalid choice: 'nope' (choose from {cantor})"),
                        (["universal", "nope"], "argument universal_verb: invalid choice: 'nope' (choose from 'search')")):
        assert dispatch(argv) == (2, {"command": " ".join(argv), "error": error})


def _parse_outcome(parse, argv, capsys):
    """What parse(argv) returns, or the error it raises, or the code it exits with; then its stdout and stderr."""
    try:
        result = parse(argv)
    except IsoprodError as exc:
        result = f"error: {exc}"
    except SystemExit as exc:
        result = f"exit {exc.code}"
    return result, *capsys.readouterr()


def test_a_verb_branch_parses_as_the_whole_tree(capsys, monkeypatch):
    # an argv that names a verb is parsed by that verb's branch alone; the branch must give the
    # Namespace of the whole tree, and any argv it refuses the whole tree's texts
    from isoprod import verbs

    full, build, built = verbs.build_parser(), verbs.build_parser, []
    monkeypatch.setattr(verbs, "build_parser", lambda only=None: built.append(only) or build(only))
    verbs._parser.cache_clear()
    argvs = [["-h"], ["cantor"], ["cantor", "-h"], ["universal", "-h"], ["nosuchverb"], ["cantor", "nope"], []]
    for command, _, _, arguments in verbs.VERBS:
        valid = command.split()
        for name, options in arguments.items():
            choices = options.get("choices")
            value = (verbs._named(choices) if isinstance(choices, str) else choices or ["1"])[0]
            valid += [value] if not name.startswith("-") else [name, value] if options.get("required") else []
        built.clear()
        assert verbs._parse(valid) == full.parse_args(valid), command
        assert verbs._parse(["--csv", *valid]) == full.parse_args(["--csv", *valid]), command
        assert built == [command] and "csv" in verbs._parse(valid), command
        # the branch holds its own group's parser and its verb's alone
        assert build(command).format_usage().split()[4] == f"{{{command.split()[0]}}}", command
        words = command.split()
        argvs += [[*words, "-h"], words, ["--bogus", *valid], [*valid, "--bogus"], ["--cs", *valid],
                  [*valid, "--csv"], [*valid, "--cs"], [*words, "--", "-1"]]
    capsys.readouterr()
    for argv in argvs:
        assert _parse_outcome(verbs._parse, argv, capsys) == _parse_outcome(full.parse_args, argv, capsys), argv


def test_usage_errors_keep_the_argparse_message(capsys):
    code, report = dispatch(["cantor", "member", "-7/9"])  # read as an option, so the value is missing
    assert (code, report) == (2, {"command": "cantor member -7/9",
                                  "error": "the following arguments are required: value"})
    code, report = dispatch(["cantor", "member", "--", "-7/9"])
    assert code == 1 and report["verdicts"] == [{"check": "cantor-member[-7/9]", "ok": False}]
    assert dispatch(["omega", "--grid", "g", "--eps", "1", "--bogus"])[1]["error"] == "unrecognized arguments: --bogus"
    assert dispatch(["nonconstant", "--grid", "g", "--var", "one"])[1]["error"] == "argument --var: invalid int value: 'one'"
    capsys.readouterr()
    for argv in (["cantor", "member", "--help"], ["witness-unbounded", "--help"]):
        with pytest.raises(SystemExit):
            dispatch(argv)
        assert "put -- before one that starts with -, as in -- -7/9" in " ".join(capsys.readouterr().out.split())


# -- fixtures -----------------------------------------------------------

def test_fixture_determinism(tmp_path):
    first = fixture_generate("random-metric-space", 7, tmp_path / "one")
    second = fixture_generate("random-metric-space", 7, tmp_path / "two")
    assert first[0].read_bytes() == second[0].read_bytes()
    different = fixture_generate("random-metric-space", 8, tmp_path / "three")
    assert first[0].read_bytes() != different[0].read_bytes()


def test_fixture_outputs_pass_their_invariants(tmp_path):
    (metric_path,) = fixture_generate("random-metric-space", 3, tmp_path)
    fileio.load_metric_space(metric_path)  # construction re-validates

    (grid_path,) = fixture_generate("named-combiner-grid", 0, tmp_path, combiner="SUM")
    assert is_fixed_point(fileio.load_grid_function(grid_path))[0]

    (set_path,) = fixture_generate("ce-level-set", 0, tmp_path, level=4)
    values = fileio.load_rational_set(set_path)
    assert three_point_search(values, F(1, 3), F(1, 3)) is not None

    (fn_path,) = fixture_generate("random-sampled-function", 11, tmp_path, mode="amenable")
    f = fileio.load_sampled_function(fn_path)
    from isoprod.sampled import is_amenable, is_isotone

    assert is_isotone(f)[0] and is_amenable(f)[0]

    with pytest.raises(ValueError, match="unknown fixture"):
        fixture_generate("nope", 0, tmp_path)


def test_cli_subprocess_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "isoprod", "cantor", "member", "2/3"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["verdicts"][0]["ok"] is True
    result = subprocess.run(
        [sys.executable, "-m", "isoprod", "--csv", "cantor", "member", "1/2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stdout.splitlines()[0] == "check,ok,detail"
