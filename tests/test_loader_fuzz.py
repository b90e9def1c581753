"""Mutated input files end in a verdict or in a LoadError that names the file, never in a misread.

Each example takes one valid input file (fixture_generate files of every kind, a CSV sampled
function, a probes file, product specs, a product matrix and an extracted combiner), applies one
mutation of ``dispatch_corpus`` (a JSON type swapped at a path, a key or item deleted, a float or
a boolean where an integer goes; a CSV cell replaced, dropped or doubled) and runs the file
through ``dispatch`` for each verb that reads it, as JSON and with --csv.  Every run exits 0, 1
or 2.  A loader that refuses the file raises a LoadError that names the file, and the verb
reports exactly that error.  A file that loads round-trips: its ``*_jsonable`` form, read back as
exact values, equals the file's own fields, so ``"dim": 1.9`` read as 1 fails here.  The 300
examples and the MALFORMED files cost about 1 s of Tier-1.
"""

import functools
import itertools
import json
import random
from decimal import Decimal
from fractions import Fraction
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dispatch_corpus import MALFORMED, READERS, csv_of, expand, json_paths, mutated, mutated_csv, replacements, value_at
from isoprod import fileio, fixtures
from isoprod.errors import LoadError, MissingOriginError
from isoprod.fixtures import fixture_generate
from isoprod.sampled import is_amenable, is_isotone
from isoprod.verbs import dispatch

# the loader each reading verb calls on the file
SQUARE_MATRIX = functools.partial(fileio.load_matrix, square=True)
LOADERS = {
    "check": fileio.load_sampled_function, "envelope": fileio.load_sampled_function,
    "extend-amenable": fileio.load_sampled_function, "extend-sup": fileio.load_points,
    "verify-metric": SQUARE_MATRIX, "extract": fileio.load_matrix, "omega": fileio.load_grid_function,
    "lemma42": fileio.load_grid_function, "universal": fileio.load_rational_set, "embed": fileio.load_rational_set,
}


def _loader(kind, argv):
    if kind == "spec":
        return fileio.load_product_spec
    if argv[0] == "product":
        return fileio.load_sampled_function if kind == "combiner" else fileio.load_metric_space
    return LOADERS[argv[0]]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid files by kind, and what fills the readers' other arguments."""
    root = tmp_path_factory.mktemp("fuzz")
    (amenable,) = fixture_generate("random-sampled-function", 1, root, dim=2, mode="amenable")
    (raw,) = fixture_generate("random-sampled-function", 2, root / "raw")
    (space_a,) = fixture_generate("random-metric-space", 3, root, max_points=3)
    (space_b,) = fixture_generate("random-metric-space", 4, root, max_points=3)
    (grid,) = fixture_generate("named-combiner-grid", 0, root, combiner="MAX")
    (values,) = fixture_generate("ce-level-set", 0, root, level=3)
    product = dispatch(["product", "--factor", str(space_a), "--factor", str(space_b), "--combiner", "SUM"])[1]
    matrix = root / "product.json"
    matrix.write_text(json.dumps(product["verdicts"][0]["matrix"]))
    combiner = root / "combiner.json"
    assert dispatch(["extract", "--product", str(matrix), "--factor", str(space_a), "--factor", str(space_b),
                     "--out", str(combiner)])[0] == 0
    factors = [space_a.name, space_b.name]
    specs = [{"factors": factors, "combiner": "CAPPED_SUM", "cap": "3/2"},
             {"factors": factors, "combiner": {"file": combiner.name}},
             {"factors": factors[:1], "combiner": {"name": "MAX", "cap": 2}}]
    files = {
        "function": [amenable, raw], "csv": [root / "amenable.csv"], "probes": [root / "probes.json"],
        "space": [space_a], "matrix": [matrix], "grid": [grid], "set": [values],
        "spec": [root / f"spec{k}.json" for k in range(len(specs))], "combiner": [combiner],
    }
    files["csv"][0].write_text(csv_of(amenable))
    files["probes"][0].write_text(json.dumps([["1", "1/2"], [0, 2], ["3/2", "0"]]))
    for path, spec in zip(files["spec"], specs):
        path.write_text(json.dumps(spec))
    fill = {"function": str(amenable), "space": str(space_a), "space_b": str(space_b), "probe": "(1,1/2)"}
    return [(kind, path) for kind, paths in files.items() for path in paths], fill


def _exact(value):
    """A file's rational field as the exact value it stands for; anything but a string or an
    integer stands for no rational, so a loader that accepts it misreads the file."""
    return Fraction(value) if type(value) in (str, int) else ("no rational", value)


def _typed(value):
    return type(value), value


def _entries(entries):
    return {tuple(map(_exact, e["point"])): _exact(e["value"]) for e in entries}


def _read_back(kind, loader, loaded, data, path):
    """The fields of the loaded object and of the file, each as exact values."""
    if loader is fileio.load_sampled_function:
        if path.suffix == ".csv":
            rows = [line.split(",") for line in data.splitlines() if line.strip(" ,")]
            return _entries(fileio.sampled_function_jsonable(loaded)["entries"]), \
                {tuple(_exact(c.strip()) for c in row[:-1]): _exact(row[-1].strip()) for row in rows}
        mine = fileio.sampled_function_jsonable(loaded)
        return (_typed(mine["dim"]), _entries(mine["entries"])), (_typed(data["dim"]), _entries(data["entries"]))
    if loader in (fileio.load_matrix, SQUARE_MATRIX, fileio.load_metric_space):
        labels, dist = (loaded.labels, loaded.dist) if loader is fileio.load_metric_space else loaded
        mine = fileio.matrix_jsonable(labels, dist)
        default = [str(i) for i in range(len(data["dist"]))]
        return ([[_exact(v) for v in row] for row in mine["dist"]], [_typed(v) for v in mine["labels"]]), \
            ([[_exact(v) for v in row] for row in data["dist"]], [_typed(v) for v in data.get("labels", default)])
    if loader is fileio.load_grid_function:
        mine = fileio.grid_function_jsonable(loaded)
        fields = lambda d: (_typed(d["n"]), _exact(d["T"]), _exact(d["h"]), _entries(d["values"]))
        return fields(mine), fields(data)
    if loader is fileio.load_rational_set:
        values = data["values"] if isinstance(data, dict) else data
        return list(map(_exact, fileio.rational_set_jsonable(loaded)["values"])), sorted(map(_exact, values))
    if loader is fileio.load_points:
        return [[_exact(c) for c in fileio.format_point(p)] for p in loaded], [list(map(_exact, p)) for p in data]
    spec, paths = loaded  # load_product_spec: its factors and its named or sampled combiner
    field = data["combiner"]
    name = field if isinstance(field, str) else field.get("name")
    mine = ([p.name for p in paths[1:1 + len(spec.factors)]], getattr(spec.combiner, "name", None))
    return mine, (data["factors"], None if isinstance(field, dict) and "file" in field else name)


_COUNTER = itertools.count()


def _mutate(kind, path, draw):
    """Write one mutation of the file beside it and return the copy's path and content."""
    copy = path.with_name(f"{path.stem}.m{next(_COUNTER)}{path.suffix}")
    if path.suffix == ".csv":
        text = mutated_csv(path.read_text(), random.Random(draw(st.integers(0, 2 ** 32))))
        copy.write_text(text)
        return copy, text
    data = json.loads(path.read_text())
    where = draw(st.sampled_from(list(json_paths(data))[1:]))
    data = mutated(data, where, draw(st.sampled_from(replacements(value_at(data, where)))))
    copy.write_text(json.dumps(data))
    return copy, data


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_files_load_exactly_or_name_themselves(inputs, data):
    files, fill = inputs
    kind, path = data.draw(st.sampled_from(files))
    copy, content = _mutate(kind, path, data.draw)
    for argv in READERS[kind]:
        argv = expand(argv, copy, fill)
        loader = _loader(kind, argv)
        try:
            loaded = loader(copy)
        except LoadError as exc:
            error = f"LoadError: {exc}"
            assert str(exc).startswith(f"{copy}:"), error
        except OSError as exc:  # a spec naming a factor or combiner file that is not there
            assert kind == "spec", exc
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = None
            mine, theirs = _read_back(kind, loader, loaded, content, copy)
            assert mine == theirs, argv
        for args in (argv, ["--csv", *argv]):
            code, report = dispatch(args)
            assert code in (0, 1, 2), report
            if error is not None:
                assert (code, report["error"]) == (2, error), args
            else:
                assert not report.get("error", "").startswith("LoadError"), report


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_files_name_the_file_at_fault(name, tmp_path):
    kind, content = MALFORMED[name]
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    culprit = path
    if kind == "spec":  # its factor is the asymmetric matrix, which is then the file at fault
        culprit = tmp_path / "asymmetric.json"
        culprit.write_text(json.dumps(MALFORMED["asymmetric.json"][1]))
    function = tmp_path / "function.json"
    function.write_text(json.dumps({"dim": 2, "entries": [{"point": ["0", "0"], "value": "0"}]}))
    fill = {"function": str(function), "space": str(culprit), "space_b": str(culprit), "probe": "(1)"}
    codes = []
    for argv in READERS[kind]:
        code, report = dispatch(expand(argv, path, fill))
        codes.append(code)
        if code == 2:  # verify-metric reads the asymmetric matrix without metric validation: exit 1
            assert report["error"].startswith(f"LoadError: {culprit}:"), report
            assert report["error"].count(str(tmp_path)) == 1, report
    assert 2 in codes


def _grid_fields(path):
    """The loaded grid's fields, or the LoadError text."""
    try:
        g = fileio.load_grid_function(path)
    except LoadError as exc:
        return str(exc)
    return g.n, g.bound, g.step, g.cells, g._value_den, g._int_values


def _bulk_and_scan(path, monkeypatch):
    """The grid file through the bulk pass (and the scan when it finds a fault), then through
    the entry-by-entry scan alone; and whether the bulk pass coded the file itself."""
    coded, bulk_codes = [], fileio._grid_codes
    with monkeypatch.context() as patch:
        patch.setattr(fileio, "_grid_codes", lambda *args: coded.append(bulk_codes(*args)) or coded[-1])
        bulk = _grid_fields(path)
        patch.setattr(fileio, "_grid_codes", lambda *args: None)
        return bulk, _grid_fields(path), coded not in ([], [None])


def _spellings(c):
    """Texts of one rational: "p/q", "2p/2q", a decimal where one is exact, and an integer
    as a JSON number, which only the scan reads."""
    p, q = c.numerator, c.denominator
    texts = [str(c), f"{2 * p}/{2 * q}"]
    if 10 ** 6 % q == 0:
        texts.append(str(Decimal(p) / Decimal(q)))
    return texts + [p] * (q == 1)


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_bulk_grid_codes_agree_with_the_entry_scan(tmp_path, monkeypatch, data):
    # 100 grid files, about 1.5 s: each point and value in a drawn spelling, entries shuffled, and
    # at most one fault (a point again in another spelling, a point missing or off the lattice,
    # a value that is no rational or negative); both paths give the same grid or the same error
    n = data.draw(st.integers(1, 3))
    cells, step = data.draw(st.integers(1, 5 - n)), data.draw(st.sampled_from([F(1), F(1, 2), F(1, 4), F(2, 5)]))
    spell = lambda c: data.draw(st.sampled_from(_spellings(F(c))))  # noqa: E731
    # a value grows with the flat code, so a point coded on the wrong axis moves its value
    entries = [{"point": [spell(i * step) for i in idx], "value": spell(F(code + data.draw(st.integers(0, 9)), 2))}
               for code, idx in enumerate(itertools.product(range(cells + 1), repeat=n))]
    fault = data.draw(st.sampled_from(["none", "none", "repeat", "missing", "off", "value", "negative"]))
    k = data.draw(st.integers(0, len(entries) - 1))
    if fault == "repeat":
        entries.append({"point": [spell(F(c)) for c in entries[k]["point"]], "value": spell(F(1))})
    elif fault == "missing":
        del entries[k]
    elif fault == "off":
        entries[k]["point"][-1] = str(step / 3)
    elif fault in ("value", "negative"):
        entries[k]["value"] = "1/x" if fault == "value" else "-1/2"
    path = tmp_path / f"grid{next(_COUNTER)}.json"
    path.write_text(json.dumps({"n": n, "T": str(cells * step), "h": str(step), "values": data.draw(st.permutations(entries))}))
    bulk, scan, coded = _bulk_and_scan(path, monkeypatch)
    assert bulk == scan
    assert isinstance(bulk, str) == (fault != "none")
    # the bulk pass codes a file with no fault and no JSON number, and leaves one with a fault in
    # its entries to the scan (a missing or negative value is GridFunction's to find)
    if fault == "none" and all(isinstance(c, str) for e in entries for c in e["point"]):
        assert coded
    assert not (coded and fault in ("repeat", "off", "value"))


def test_one_point_in_three_spellings_is_one_repeated_point(tmp_path, monkeypatch):
    values = [{"point": [c], "value": "1"} for c in ("0", "1/2", "1", "2/4", "0.5")]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 1, "T": "1", "h": "1/2", "values": values}))
    assert _bulk_and_scan(path, monkeypatch) == (f"{path}: duplicate lattice point (1/2)",) * 2 + (False,)
    path.write_text(json.dumps({"n": 1, "T": "1", "h": "1/2", "values": [values[0], values[4], values[2]]}))
    assert _bulk_and_scan(path, monkeypatch) == ((1, 1, F(1, 2), 2, 1, [1, 1, 1]),) * 2 + (True,)


def _sampled_fields(path):
    """The loaded function's prepared fields, items and kept verdicts, or the LoadError text."""
    try:
        f = fileio.load_sampled_function(path)
    except LoadError as exc:
        return str(exc)
    try:
        amenable = is_amenable(f)
    except MissingOriginError as exc:
        amenable = str(exc)
    return f.dim, f._den, f._rows, f._value_den, f._int_values, f._caps, f.items(), is_isotone(f), amenable


def _probe_fields(path):
    try:
        return [(p, type(p).__name__, tuple(map(type, p.coords))) for p in fileio.load_points(path)]
    except LoadError as exc:
        return str(exc)


def _bulk_and_entry(fields, bulk, path, monkeypatch):
    """fields(path) with fileio's bulk pass of that name, then with the bulk pass refusing every
    file; and whether the bulk pass coded the file itself."""
    coded, bulk_pass = [], getattr(fileio, bulk)
    with monkeypatch.context() as patch:
        patch.setattr(fileio, bulk, lambda *args: coded.append(bulk_pass(*args)) or coded[-1])
        first = fields(path)
        patch.setattr(fileio, bulk, lambda *args: None)
        return first, fields(path), coded not in ([], [None])


def _mutation(data, draw):
    """data with one dispatch_corpus mutation at a drawn path."""
    where = draw(st.sampled_from(list(json_paths(data))[1:]))
    return mutated(data, where, draw(st.sampled_from(replacements(value_at(data, where)))))


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_bulk_sampled_function_loads_agree_with_the_entry_path(tmp_path, monkeypatch, data):
    # 150 files, about 1 s: a fixture function of dimension 1-3, each coordinate and value in a drawn
    # spelling (an integer sometimes a JSON number), entries shuffled, then at most one fault (a point
    # again in another spelling, a negative value or coordinate, a point of another dimension, a
    # declared dim that differs, a dispatch_corpus mutation); both paths give the same fields, items
    # and kept verdicts, or the same error
    f = fixtures.random_sampled_function(random.Random(data.draw(st.integers(0, 99))), dim=data.draw(st.integers(1, 3)),
                                         mode=data.draw(st.sampled_from(["raw", "isotone", "amenable"])))
    spell = lambda c: data.draw(st.sampled_from(_spellings(F(c))))  # noqa: E731
    entries = [{"point": [spell(c) for c in p.coords], "value": spell(v)} for p, v in f.items()]
    entries, dim = data.draw(st.permutations(entries)), f.dim
    k = data.draw(st.integers(0, len(entries) - 1))
    fault = data.draw(st.sampled_from(["none", "none", "repeat", "negative value", "negative coordinate",
                                       "short point", "dim", "mutation", "mutation"]))
    if fault == "repeat":
        entries.append({"point": [spell(F(c)) for c in entries[k]["point"]], "value": spell(F(1))})
    elif fault.startswith("negative"):
        entries[k]["value" if fault == "negative value" else "point"] = "-1/2" if fault == "negative value" else ["-1"] * dim
    elif fault == "short point":
        entries[k]["point"] = entries[k]["point"][:-1] or ["0", "0"]
    elif fault == "dim":
        dim += 1
    plain = {"dim": dim, "entries": entries}
    content = _mutation(plain, data.draw) if fault == "mutation" else plain
    path = tmp_path / f"f{next(_COUNTER)}.json"
    path.write_text(json.dumps(content))
    bulk, entry, coded = _bulk_and_entry(_sampled_fields, "_sampled_rows", path, monkeypatch)
    assert bulk == entry
    if fault != "mutation":  # a mutation may leave a good file; the bulk pass codes every good file of strings
        assert isinstance(bulk, str) == (fault != "none")
        assert coded == (fault == "none" and all(isinstance(x, str) for e in entries for x in (*e["point"], e["value"])))


def test_one_sample_point_in_two_spellings_is_one_repeated_point(tmp_path, monkeypatch):
    entries = [{"point": [c], "value": "1"} for c in ("0", "1/2", "2/4")]
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"dim": 1, "entries": entries}))
    assert _bulk_and_entry(_sampled_fields, "_sampled_rows", path, monkeypatch) == \
        (f"{path}: duplicate point (1/2)",) * 2 + (False,)


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_bulk_probe_loads_agree_with_the_entry_path(tmp_path, monkeypatch, data):
    # 100 probe files, about 0.3 s: 0-4 points of dimension 1-3 in drawn spellings, at most one fault
    # (a negative or bad coordinate, an empty point, a point that is no array, a dispatch_corpus
    # mutation); both paths give the same points, built of Fractions, or the same error
    dim = data.draw(st.integers(1, 3))
    coords = st.sampled_from([F(0), F(1, 2), F(1), F(3, 2), F(2), F(7, 3)])
    points = [[data.draw(st.sampled_from(_spellings(c))) for c in data.draw(st.lists(coords, min_size=dim, max_size=dim))]
              for _ in range(data.draw(st.integers(0, 4)))]
    fault = data.draw(st.sampled_from(["none", "none", "negative", "bad", "empty", "no array", "mutation"]))
    if points and fault not in ("none", "mutation"):
        k = data.draw(st.integers(0, len(points) - 1))
        points[k] = {"negative": ["-1/3"] * dim, "bad": ["1/0"], "empty": [], "no array": "1"}[fault]
    content = _mutation(points, data.draw) if points and fault == "mutation" else points
    path = tmp_path / f"p{next(_COUNTER)}.json"
    path.write_text(json.dumps(content))
    bulk, entry, coded = _bulk_and_entry(_probe_fields, "_parsed_strings", path, monkeypatch)
    assert bulk == entry
    if fault != "mutation":
        assert isinstance(bulk, str) == (fault != "none" and bool(points))
        if fault == "none" and all(isinstance(c, str) for p in points for c in p):
            assert coded
