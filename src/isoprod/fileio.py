"""JSON and CSV file formats for every object the CLI consumes.

Rationals travel as strings "p/q" (or "p" for integers) everywhere, so
reports and fixtures are bit-stable across platforms and locales.  A
loader parses each distinct string of its file once: a product matrix or
a lattice file repeats a few values many times.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .errors import LoadError, OffLatticeError
from .points import PointN

if TYPE_CHECKING:  # each loader imports the record type it builds when it first runs
    from .continuation import CoverCertificate
    from .metric import FiniteMetricSpace, ProductSpec
    from .modulus import GridFunction
    from .sampled import SampledFunction

PathLike = Union[str, Path]


def format_rational(value: Fraction) -> str:
    if not isinstance(value, (Fraction, int)):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(value) -> Fraction:
    """An int, a Fraction or a Fraction string, as an exact Fraction.

    Refuses a value whose numerator or denominator has more digits than
    the interpreter converts to text (``sys.get_int_max_str_digits()``);
    a string whose exponent is beyond that limit is refused unexpanded.
    A plain "p" or "p/q" of ASCII digits skips the Fraction string parser.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
            try:
                # int() and Fraction() raise here what Fraction(value) would raise
                return Fraction(int(num), int(den) if slash else 1)
            except (ValueError, ZeroDivisionError) as exc:
                raise LoadError(f"bad rational {value!r}: {exc}") from None
    if isinstance(value, bool):
        raise LoadError(f"expected a rational, got boolean {value}")
    if not isinstance(value, (int, str)):
        if isinstance(value, Fraction):
            return value
        raise LoadError(f"expected a rational string, got {value!r}")
    limit = sys.get_int_max_str_digits()
    # Fraction refuses a longer digit string itself; an int, an exponent or
    # a decimal point can make a longer numerator or denominator
    unbounded = limit and (isinstance(value, int) or "." in value or "e" in value or "E" in value)
    if unbounded and isinstance(value, str):
        digits = value.lower().rpartition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit):
            raise LoadError(f"bad rational {value!r}: exponent beyond {limit}")
    try:
        result = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise LoadError(f"bad rational {value!r}: {exc}") from None
    if unbounded:
        big = max(abs(result.numerator), result.denominator)
        # below 2 ** (3 * limit) < 10 ** limit, big has at most limit digits
        if big.bit_length() > 3 * limit and big >= 10 ** limit:
            raise LoadError(f"bad rational: more than {limit} digits")
    return result


def _file_parser():
    """parse_rational for one file, each distinct string parsed once.  Only ``str`` values are
    kept: ``True == 1 == 1.0`` hash alike, and a boolean or a float must reach its own error."""
    memo = {}
    get = memo.get

    def parse(value) -> Fraction:
        if value.__class__ is not str:
            return parse_rational(value)
        result = get(value)
        if result is None:
            result = memo[value] = parse_rational(value)
        return result

    return parse


def format_point(p: PointN) -> list[str]:
    return [format_rational(c) for c in p.coords]


def parse_point(values: Sequence, parse=parse_rational) -> PointN:
    if not isinstance(values, (list, tuple)) or not values:
        raise LoadError(f"expected a nonempty coordinate array, got {values!r}")
    return PointN(tuple(map(parse, values)))


def parse_point_string(text: str) -> PointN:
    """Parse CLI probe syntax: "(2,0)", "[2, 0]" or "2,0"."""
    body = text.strip()
    if body and body[0] in "([" and body[-1] in ")]":
        body = body[1:-1]
    parts = [piece.strip() for piece in body.split(",") if piece.strip()]
    if not parts:
        raise LoadError(f"empty probe {text!r}")
    return PointN(tuple(parse_rational(piece) for piece in parts))


def file_digest(path: PathLike) -> str:
    import hashlib  # here, not at module top: only a job that reads a file pays for it
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"


def _read_json(path: PathLike):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}: invalid JSON: {exc}") from None


# -- sampled functions -------------------------------------------------

def sampled_function_jsonable(f: SampledFunction) -> dict:
    return {
        "dim": f.dim,
        "entries": [
            {"point": format_point(p), "value": format_rational(v)}
            for p, v in f.items()
        ],
    }


def load_sampled_function(path: PathLike) -> SampledFunction:
    """Load a sampled function from .json or .csv (n+1 columns)."""
    from .sampled import SampledFunction

    path = Path(path)
    parse = _file_parser()
    dim = None  # a CSV file declares no dimension
    if path.suffix.lower() == ".csv":
        entries = _sampled_function_csv_rows(path, parse)
    else:
        data = _read_json(path)
        try:
            entries = [(parse_point(e["point"], parse), parse(e["value"])) for e in data["entries"]]
            dim = int(data["dim"])
        except (KeyError, TypeError) as exc:
            raise LoadError(f"{path}: malformed sampled function: {exc!r}") from None
        except ValueError as exc:  # a negative coordinate, or a dimension that is no integer
            raise LoadError(f"{path}: {exc}") from None
    try:
        f = SampledFunction(entries)
    except ValueError as exc:
        raise LoadError(f"{path}: {exc}") from None
    if dim is not None and f.dim != dim:
        raise LoadError(f"{path}: declared dim {dim} but points have dim {f.dim}")
    return f


def _sampled_function_csv_rows(path: Path, parse) -> list[tuple[PointN, Fraction]]:
    import csv

    entries = []
    with open(path, newline="", encoding="utf-8") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise LoadError(f"{path}:{lineno}: need n+1 columns")
            coords = [parse(cell.strip()) for cell in row[:-1]]
            try:
                point = PointN(tuple(coords))
            except ValueError as exc:  # a negative coordinate
                raise LoadError(f"{path}:{lineno}: {exc}") from None
            entries.append((point, parse(row[-1].strip())))
    if not entries:
        raise LoadError(f"{path}: no rows")
    return entries


def dump_sampled_function(f: SampledFunction, path: PathLike) -> None:
    write_canonical_json(path, sampled_function_jsonable(f))


# -- metric spaces and matrices ----------------------------------------

def matrix_jsonable(labels: Sequence, matrix) -> dict:
    texts = {}  # a product matrix holds few distinct values; an int pair hashes cheaper than a Fraction

    def entry(v):
        if not isinstance(v, (Fraction, int)):
            return float(v)
        key = (v.numerator, v.denominator)
        text = texts.get(key)
        if text is None:
            text = texts[key] = format_rational(v)
        return text

    return {
        "labels": [
            "|".join(lab) if isinstance(lab, tuple) else str(lab) for lab in labels
        ],
        "dist": [list(map(entry, row)) for row in matrix],
    }


def load_matrix(path: PathLike) -> tuple[list[str], list[list[Fraction]]]:
    """Load a labeled candidate matrix without metric validation."""
    data = _read_json(path)
    parse = _file_parser()
    try:
        rows = data["dist"]
    except (KeyError, TypeError) as exc:
        raise LoadError(f"{path}: malformed matrix: {exc!r}") from None
    # a string or an object would be read one character or one key at a time
    if not isinstance(rows, list):
        raise LoadError(f"{path}: malformed matrix: dist is not an array")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise LoadError(f"{path}: malformed matrix: dist[{i}] is not an array")
    dist = [list(map(parse, row)) for row in rows]
    labels = data.get("labels", range(len(dist)))
    if not isinstance(labels, (list, range)):  # a string would split into one label per character
        raise LoadError(f"{path}: malformed matrix: labels is not an array")
    labels = list(map(str, labels))
    if len(labels) != len(dist):
        raise LoadError(f"{path}: {len(labels)} labels for {len(dist)} rows")
    return labels, dist


def load_metric_space(path: PathLike) -> FiniteMetricSpace:
    from .metric import FiniteMetricSpace

    labels, dist = load_matrix(path)
    return FiniteMetricSpace(labels, dist)


def dump_metric_space(space: FiniteMetricSpace, path: PathLike) -> None:
    write_canonical_json(path, matrix_jsonable(space.labels, space.dist))


# -- grid functions ----------------------------------------------------

def grid_function_jsonable(g: GridFunction) -> dict:
    return {
        "n": g.n,
        "T": format_rational(g.bound),
        "h": format_rational(g.step),
        "values": [
            {"point": format_point(p), "value": format_rational(v)}
            for p, v in g.items()
        ],
    }


def load_grid_function(path: PathLike) -> GridFunction:
    from .modulus import GridFunction

    data = _read_json(path)
    parse = _file_parser()
    try:
        n = int(data["n"])
        bound = parse(data["T"])
        step = parse(data["h"])
        # every entry is parsed before any is indexed: a bad rational is reported first
        entries = [(parse_point(e["point"], parse), parse(e["value"])) for e in data["values"]]
    except (KeyError, TypeError) as exc:
        raise LoadError(f"{path}: malformed grid function: {exc!r}") from None
    except ValueError as exc:  # a negative coordinate, or a dimension that is no integer
        raise LoadError(f"{path}: {exc}") from None
    try:
        return GridFunction.from_points(n, bound, step, entries)
    except (ValueError, OffLatticeError) as exc:
        raise LoadError(f"{path}: {exc}") from None


def dump_grid_function(g: GridFunction, path: PathLike) -> None:
    write_canonical_json(path, grid_function_jsonable(g))


# -- rational sets -----------------------------------------------------

def load_rational_set(path: PathLike) -> list[Fraction]:
    data = _read_json(path)
    if isinstance(data, dict):
        data = data.get("values")
    if not isinstance(data, list):
        raise LoadError(f"{path}: expected an array of rationals")
    return list(map(_file_parser(), data))


def rational_set_jsonable(values: Iterable[Fraction]) -> dict:
    return {"values": [format_rational(v) for v in sorted(values)]}


def dump_rational_set(values: Iterable[Fraction], path: PathLike) -> None:
    write_canonical_json(path, rational_set_jsonable(values))


# -- product specs -----------------------------------------------------

def load_product_spec(path: PathLike) -> tuple[ProductSpec, list[Path]]:
    """Load a product spec; factor paths resolve relative to the spec file.

    Returns the spec plus every file it pulled in, for report digests.
    """
    from .combiners import named_combiner
    from .metric import ProductSpec

    path = Path(path)
    data = _read_json(path)
    base = path.parent
    try:
        if not isinstance(data["factors"], list):
            raise LoadError(f"{path}: malformed product spec: factors is not an array")
        factor_paths = [base / p for p in data["factors"]]
        combiner_field = data.get("combiner")
        is_file = isinstance(combiner_field, dict) and "file" in combiner_field
        combiner_path = base / combiner_field["file"] if is_file else None
    except (KeyError, TypeError) as exc:
        raise LoadError(f"{path}: malformed product spec: {exc!r}") from None
    factors = [load_metric_space(p) for p in factor_paths]
    if isinstance(combiner_field, str):
        combiner = named_combiner(combiner_field, parse_rational(data.get("cap", "1")))
    elif is_file:
        factor_paths.append(combiner_path)
        combiner = load_sampled_function(combiner_path)
    elif isinstance(combiner_field, dict) and "name" in combiner_field:
        combiner = named_combiner(
            combiner_field["name"], parse_rational(combiner_field.get("cap", "1"))
        )
    else:
        raise LoadError(f"{path}: combiner must be a name or a file reference")
    try:
        spec = ProductSpec(tuple(factors), combiner)
    except ValueError as exc:
        raise LoadError(f"{path}: {exc}") from None
    return spec, [path, *factor_paths]


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
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
