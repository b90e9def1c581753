"""JSON and CSV file formats for every object the CLI consumes.

Rationals are the strings of :mod:`isoprod.text`, whose ``parse_rational``,
``format_rational`` and ``indented_json`` this module imports back.  A
loader parses each distinct string of its file once: a product matrix or
a lattice file repeats a few values many times.  A well-formed matrix,
lattice, sampled-function or probe file is coded in C-level passes over its
distinct strings: a lattice to flat codes, a sampled function to int rows
over one denominator, whose points are built only when a report needs them.
Every file, JSON or CSV, is read once: one read of its bytes is both parsed
and, within ``load_recorded``, digested for the report.
Written files are :func:`indented_json`, ``json.dumps(obj, indent=2)``
written by C calls.

A loader checks the JSON type of each object and array before reading
into it.  An input error names the file once, as ``<file>: <json path>:
expected ...`` (``f.json: dist[1]: expected an array``) or ``<file>:<line>:``
in a CSV row.  A bad rational names its JSON path too (``m.json: dist[1][2]:
bad rational ...``): a file that is not well formed is read entry by entry,
which names its first fault.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path
from operator import add, mul
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .errors import IsoprodError, LoadError
from .points import PointN, _numerator
from .text import format_rational, indented_json, parse_rational

if TYPE_CHECKING:  # each loader imports the record type it builds when it first runs
    from .continuation import CoverCertificate
    from .metric import FiniteMetricSpace, ProductSpec
    from .modulus import GridFunction
    from .sampled import SampledFunction

PathLike = Union[str, Path]


def format_point(p: PointN) -> list[str]:
    return [format_rational(c) for c in p.coords]


def parse_point(values: Sequence) -> PointN:
    return PointN(tuple(map(parse_rational, values)))


def parse_point_string(text: str) -> PointN:
    """Parse CLI probe syntax: "(2,0)", "[2, 0]" or "2,0"; "(2,)" is the 1-tuple (2)."""
    body = text.strip()
    if body and body[0] in "([" and body[-1] in ")]":
        body = body[1:-1]
    parts = [piece.strip() for piece in body.split(",")]
    if len(parts) == 2 and parts[0] and not parts[1]:
        parts.pop()
    if "" in parts:  # "(1,,2)" is no 2-D point
        raise LoadError(f"empty probe {text!r}" if parts == [""] else f"empty coordinate in probe {text!r}")
    return PointN(tuple(parse_rational(piece) for piece in parts))


def file_digest(data: bytes) -> str:
    import hashlib  # here, not at module top: only a job that reads a file pays for it
    return "sha256:" + hashlib.sha256(data).hexdigest()


def load_recorded(loader, path: PathLike, inputs: dict):
    """loader(path); once it returns, each file it read is recorded in inputs, in read order, under
    the path it was read by, with the digest of the bytes parsed (``_Reading.text``)."""
    _Reading.log = log = []
    try:
        value = loader(path)
    finally:
        _Reading.log = None
    inputs.update(log)
    return value


# -- shape checks and file names ---------------------------------------

_OBJECT, _ARRAY, _INTEGER, _STRING = (dict, "an object"), (list, "an array"), (int, "an integer"), (str, "a string")


def _located(message: str, path) -> LoadError:
    """LoadError('<json path>: message'), path being the keys and indices of a value in its file,
    as ("dist", 1) for ``dist[1]``; LoadError(message) for the whole file."""
    where = "".join(f"[{p}]" if p.__class__ is int else f".{p}" for p in path).lstrip(".")
    return LoadError(f"{where}: {message}" if where else message)


def _expect(value, kind, *path):
    """value, if its JSON type is kind (the class json.loads gives it, and its name; a boolean is
    no integer); else LoadError('<json path>: expected an array'), path being where value is."""
    if value.__class__ is not kind[0]:
        raise _located(f"expected {kind[1]}", path)
    return value


def _parsed(parse, value, *path) -> Fraction:
    """parse(value); a value that is no rational is a LoadError that names its path."""
    try:
        return parse(value)
    except LoadError as exc:
        raise _located(str(exc), path) from None


def _field(obj: dict, key: str, parse, *path) -> Fraction:
    """The rational at obj[key], obj being at path; a missing key names the path of obj."""
    if key not in obj:
        raise _located(f"expected a {json.dumps(key)} key", path)
    return _parsed(parse, obj[key], *path, key)


def _each_parsed(parse, values, *path) -> list:
    """[parse(v) for v in values], values being at path; a bad one names its own path, as ``dist[1][2]``."""
    return [_parsed(parse, v, *path, j) for j, v in enumerate(values)]


class _Reading:
    """A file being loaded.  An input error raised in ``with _Reading(path) as source``
    leaves as a LoadError that names the file once: '<source.where>: <message>', where
    is the path, or '<path>:<line>' while a CSV row is read.  The error of a file loaded
    inside the block names that file alone.  ``source.parse`` is parse_rational with
    each distinct string of the file parsed once."""

    log: Optional[list] = None  # within load_recorded, (path as given, digest) of each file read

    def __init__(self, path: PathLike):
        self.path, self.where = Path(path), str(path)
        memo = {}  # str values only: True == 1 == 1.0 hash alike, and a bool or a float must reach its own error
        get = memo.get

        def parse(value) -> Fraction:
            if value.__class__ is not str:
                return parse_rational(value)
            result = get(value)
            if result is None:
                result = memo[value] = parse_rational(value)
            return result

        self.parse = parse

    def __enter__(self) -> "_Reading":
        return self

    def __exit__(self, exc_type, exc, traceback):
        # ValueError: a record's own checks and undecodable text; a .path is a named file's error
        if isinstance(exc, (IsoprodError, ValueError)) and not hasattr(exc, "path"):
            detail = f"invalid JSON: {exc}" if isinstance(exc, json.JSONDecodeError) else exc
            error = LoadError(f"{self.where}: {detail}")
            error.path = self.path
            raise error from None

    def text(self) -> str:
        """The file's text, from its one read; the bytes go before the parse, as read_text's do."""
        data = self.path.read_bytes()
        if self.log is not None:  # where is still the path as given
            self.log.append((self.where, file_digest(data)))
        return data.decode("utf-8")

    def json(self):
        text = self.text()
        if "\r" in text:  # read_text's newlines
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)


def _entries(entries: list, key: str, parse) -> list[tuple[PointN, Fraction]]:
    """The (point, value) pairs of entries, the array of {"point": [...], "value": ...} objects at key,
    read entry by entry: a bad rational names its JSON path, as ``entries[1].point[0]: bad rational ...``."""
    points = [_expect(_expect(e, _OBJECT, key, i).get("point"), _ARRAY, key, i, "point") for i, e in enumerate(entries)]
    return [(PointN(tuple(_each_parsed(parse, p, key, i, "point"))), _field(e, "value", parse, key, i))
            for i, (p, e) in enumerate(zip(points, entries))]


def _split_entries(entries: list, dim: int, parse) -> Optional[tuple[list, list, dict]]:
    """The point arrays and the value texts of entries, an array of {"point", "value"} objects, and each
    distinct string among them parsed once; None unless each point is dim rational strings and each value one."""
    if {*map(type, entries)} != {dict}:
        return None
    points, values = (list(map(dict.get, entries, repeat(key))) for key in ("point", "value"))
    parsed = _parsed_strings([*points, values], parse)
    return (points, values, parsed) if parsed and {*map(len, points)} == {dim} else None


def _entry_objects(items) -> list[dict]:
    return [{"point": format_point(p), "value": format_rational(v)} for p, v in items]


def load_points(path: PathLike) -> list[PointN]:
    """A JSON array of coordinate arrays, such as a --probes file, coded in bulk; a faulty one is read point by point."""
    with _Reading(path) as source:
        points = _expect(source.json(), (list, "an array of points"))
        coords = _parsed_strings(points, source.parse)
        if coords is None or 0 in map(len, points) or min(map(_numerator, coords.values()), default=0) < 0:
            return [PointN(tuple(_each_parsed(source.parse, _expect(p, _ARRAY, i), i))) for i, p in enumerate(points)]
        return [PointN._trusted(tuple(map(coords.__getitem__, p))) for p in points]


def _parsed_strings(arrays: list, parse) -> Optional[dict]:
    """Each distinct string of the arrays parsed once, if they are arrays of rational strings; else None.
    No other JSON value equals a string, so the distinct values are all strings when every value is."""
    try:
        texts = dict.fromkeys(chain.from_iterable(arrays)) if {*map(type, arrays)} <= {list} else {None: None}
        return {t: parse(t) for t in texts} if {*map(type, texts)} <= {str} else None
    except (TypeError, LoadError):  # an array or an object among the values, which no dict keys; no rational
        return None


# -- sampled functions -------------------------------------------------

def sampled_function_jsonable(f: SampledFunction) -> dict:
    return {"dim": f.dim, "entries": _entry_objects(f.items())}


def load_sampled_function(path: PathLike) -> SampledFunction:
    """Load a sampled function from .json or .csv (n+1 columns)."""
    from .sampled import SampledFunction

    with _Reading(path) as source:
        if source.path.suffix.lower() != ".csv":
            data = _expect(source.json(), (dict, "a sampled function object"))
            entries, dim = _expect(data.get("entries"), _ARRAY, "entries"), data.get("dim")
            f = _sampled_rows(entries, dim, source.parse) or SampledFunction(_entries(entries, "entries", source.parse))
            dim = _expect(dim, _INTEGER, "dim")
            if f.dim != dim:
                raise LoadError(f"declared dim {dim} but points have dim {f.dim}")
            return f
        import csv
        import io

        entries, parse, name = [], source.parse, source.where
        reader = csv.reader(io.StringIO(source.text(), newline=""))
        try:
            for lineno, row in enumerate(reader, start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                source.where = f"{name}:{lineno}"
                if len(row) < 2:
                    raise LoadError("need n+1 columns")
                entries.append((PointN(tuple(parse(cell.strip()) for cell in row[:-1])), parse(row[-1].strip())))
                source.where = name
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise LoadError(f"line {reader.line_num}: {exc}") from None
        return SampledFunction(entries)


def _sampled_rows(entries: list, dim, parse) -> Optional[SampledFunction]:
    """A well-formed sampled-function file's function, each distinct string parsed once and the rows coded by
    ``SampledFunction._from_texts``; None at any fault, for the entry path to name."""
    from .sampled import SampledFunction

    split = dim.__class__ is int and dim >= 1 and _split_entries(entries, dim, parse)
    if not split or min(map(_numerator, split[2].values())) < 0:
        return None
    return SampledFunction._from_texts(dim, *split)


def dump_sampled_function(f: SampledFunction, path: PathLike) -> None:
    write_canonical_json(path, sampled_function_jsonable(f))


# -- metric spaces and matrices ----------------------------------------

def matrix_jsonable(labels: Sequence, matrix, *, values=None) -> dict:
    """The matrix file object; given values, the rows are indices into it, each value written once."""
    def entry(v):
        return format_rational(v) if isinstance(v, (Fraction, int)) else float(v)

    if values is not None:
        entry = list(map(entry, values)).__getitem__
    return {
        "labels": [
            "|".join(lab) if isinstance(lab, tuple) else str(lab) for lab in labels
        ],
        "dist": [list(map(entry, row)) for row in matrix],
    }


def load_matrix(path: PathLike, *, square: bool = False, values=None) -> tuple[list[str], list[list[Fraction]]]:
    """Load a labeled candidate matrix without metric validation: its rows have one
    length, as many as the rows when square is set, and its labels are distinct
    strings, one per row.  Given a list values, the rows are indices into it and the
    parsed values are appended to it.  A matrix of rational strings is coded by its distinct
    strings, each parsed once; any other is read entry by entry, row-major, to name its first fault."""
    with _Reading(path) as source:
        data = _expect(source.json(), (dict, "a matrix object"))
        rows = _expect(data.get("dist"), _ARRAY, "dist")
        for i, row in enumerate(rows):
            if len(_expect(row, _ARRAY, "dist", i)) != len(rows[0]):
                raise LoadError(f"dist[{i}]: expected {len(rows[0])} entries as in dist[0], got {len(row)}")
        parsed = _parsed_strings(rows, source.parse)  # only strings are coded by value: 1, true and 1.0 hash alike
        if parsed is None:  # each entry coded by its place, read in turn: the first bad one names its path
            width = len(rows[0]) if rows else 0
            parsed = dict(enumerate(v for i, row in enumerate(rows) for v in _each_parsed(source.parse, row, "dist", i)))
            rows = [range(i * width, (i + 1) * width) for i in range(len(rows))]
        code = dict(zip(parsed, parsed.values() if values is None else range(len(parsed)))).__getitem__
        dist = [list(map(code, row)) for row in rows]
        if values is not None:
            values.extend(parsed.values())
        labels = [str(i) for i in range(len(dist))]
        if "labels" in data:
            labels = _expect(data["labels"], _ARRAY, "labels")
            first = {}
            for i, label in enumerate(labels):
                if first.setdefault(_expect(label, _STRING, "labels", i), i) != i:
                    raise LoadError(f"labels[{i}]: {label!r} repeats labels[{first[label]}]")
            if len(labels) != len(dist):
                raise LoadError(f"{len(labels)} labels for {len(dist)} rows")
        if square and dist and len(dist[0]) != len(dist):  # checked last: label errors are reported first
            raise LoadError("matrix is not square")
        return labels, dist


def load_metric_space(path: PathLike) -> FiniteMetricSpace:
    from .metric import FiniteMetricSpace

    with _Reading(path):
        return FiniteMetricSpace(*load_matrix(path))


def dump_metric_space(space: FiniteMetricSpace, path: PathLike) -> None:
    # rows of ranks into the distance set: each distinct distance is formatted once
    write_canonical_json(path, matrix_jsonable(space.labels, space._ranks, values=space.distance_set()))


# -- grid functions ----------------------------------------------------

def grid_function_jsonable(g: GridFunction) -> dict:
    return {"n": g.n, "T": format_rational(g.bound), "h": format_rational(g.step), "values": _entry_objects(g.items())}


def load_grid_function(path: PathLike) -> GridFunction:
    """A grid function file, loaded straight to flat lattice codes.

    A well-formed file is coded in bulk (:func:`_grid_codes`), with each distinct
    coordinate and value string parsed once and no point built.  A file with a fault,
    or with a coordinate or value that is no string, is scanned entry by entry, which
    names the fault: every entry is parsed before any is indexed, so a bad rational or
    a negative coordinate is reported first, then a step that is not positive; then,
    entry by entry, a point of another dimension, off the lattice or repeated; then the
    checks of ``GridFunction.from_codes``.  A missing key or a bad rational names its
    JSON path, as ``values[1].value: expected a rational string, got None``.
    """
    from .modulus import GridFunction

    with _Reading(path) as source:
        data = _expect(source.json(), (dict, "a grid function object"))
        n = _expect(data.get("n"), _INTEGER, "n")
        if n < 1:
            raise LoadError("dimension must be at least 1")
        bound, step = (_field(data, key, source.parse) for key in ("T", "h"))
        entries = _expect(data.get("values"), _ARRAY, "values")
        codes = _grid_codes(entries, n, bound, step, source.parse)
        if codes is None:
            codes = _scan_grid_codes(entries, n, bound, step, source.parse)
        return GridFunction.from_codes(n, bound, step, codes, len(entries))


def _grid_codes(entries: list, n: int, bound: Fraction, step: Fraction, parse) -> Optional[dict]:
    """The value at each flat code of a well-formed grid file's entries, found in C-level
    passes over all entries at once; None at any fault, and below the 2 ** n entries that
    GridFunction needs, so that the scan names what is wrong."""
    from .modulus import _axis_index

    split = len(entries).bit_length() > n and bound > 0 and step > 0 and _split_entries(entries, n, parse)
    if not split:
        return None
    points, values, parsed = split
    axis = {c: _axis_index(parsed[c], bound, step) for c in dict.fromkeys(chain.from_iterable(points))}
    index = list(map(axis.__getitem__, chain.from_iterable(points)))
    if min(index) < 0:
        return None
    codes, m = index[::n], int(bound / step) + 1
    for k in range(1, n):
        codes = list(map(add, map(mul, codes, repeat(m)), index[k::n]))
    found = dict(zip(codes, map(parsed.__getitem__, values)))
    return found if len(found) == len(entries) else None


def _scan_grid_codes(entries: list, n: int, bound: Fraction, step: Fraction, parse) -> dict:
    """The value at each flat code of the grid entries, read entry by entry: raises the
    first fault in the order :func:`load_grid_function` gives."""
    from .modulus import _code, _index_of

    read = _entries(entries, "values", parse)  # PointN raises the empty point or the negative coordinate
    if bound <= 0 or step <= 0:
        raise LoadError("bound and step must be positive")
    # below 2 ** n entries from_codes refuses n, whose flat codes may then cost O(n ** 2): key by index
    m, flat, codes = int(bound / step) + 1, len(entries).bit_length() > n, {}
    for point, value in read:
        idx = _index_of(point, n, bound, step)  # raises the dimension or lattice error
        c = _code(idx, m) if flat else idx
        if c in codes:
            raise LoadError(f"duplicate lattice point {point}")
        codes[c] = value
    return codes


def dump_grid_function(g: GridFunction, path: PathLike) -> None:
    write_canonical_json(path, grid_function_jsonable(g))


# -- rational sets -----------------------------------------------------

def load_rational_set(path: PathLike) -> list[Fraction]:
    with _Reading(path) as source:
        data = source.json()
        path = ("values",) if data.__class__ is dict else ()
        values = _expect(data.get("values") if path else data, (list, "an array of rationals"))
        return _each_parsed(source.parse, values, *path)


def rational_set_jsonable(values: Iterable[Fraction]) -> dict:
    return {"values": [format_rational(v) for v in sorted(values)]}


def dump_rational_set(values: Iterable[Fraction], path: PathLike) -> None:
    write_canonical_json(path, rational_set_jsonable(values))


# -- product specs -----------------------------------------------------

def load_product_spec(path: PathLike) -> tuple[ProductSpec, list[Path]]:
    """Load a product spec; factor paths resolve relative to the spec file.

    Returns the spec plus every file it read, in read order.  An error in a
    factor or combiner file names that file, not the spec.
    """
    from .combiners import named_combiner
    from .metric import ProductSpec

    with _Reading(path) as source:
        data = _expect(source.json(), (dict, "a product spec object"))
        names = _expect(data.get("factors"), _ARRAY, "factors")
        paths = [source.path.parent / _expect(name, _STRING, "factors", i) for i, name in enumerate(names)]
        field = data.get("combiner")
        if field.__class__ is str:  # a name, its cap beside it
            field = {"name": field, "cap": data.get("cap", "1")}
        if field.__class__ is dict and "file" in field:
            paths.append(source.path.parent / _expect(field["file"], _STRING, "combiner", "file"))
        elif field.__class__ is dict and "name" in field:
            name = _expect(field["name"], _STRING, "combiner", "name")
            combiner = named_combiner(name, source.parse(field.get("cap", "1")))
        else:
            raise LoadError("combiner must be a name or a file reference")
        factors = tuple(map(load_metric_space, paths[:len(names)]))
        if len(paths) > len(names):  # a combiner file, read after the factors
            combiner = load_sampled_function(paths[-1])
        return ProductSpec(factors, combiner), [source.path, *paths]


# -- certificates and reports ------------------------------------------

def certificate_jsonable(cert: CoverCertificate) -> dict:
    return {
        "target": format_point(cert.target),
        "parts": [
            {"point": format_point(p), "count": mult} for p, mult in cert.parts
        ],
        "cost": format_rational(cert.cost),
    }


def write_canonical_json(path: PathLike, obj) -> None:
    Path(path).write_text(indented_json(obj) + "\n", encoding="utf-8")
