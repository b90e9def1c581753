"""Batch command-line front end.

Every invocation prints one JSON run report (or a CSV verdict table
with --csv) and exits 0 when all verdicts hold, 1 when some verdict is
false (the report then carries a witness), 2 on input errors, and 3
on an internal error (an exception no input error explains; its
report carries "internal error: <type>: <message>").
Reports are stable: identical inputs give identical output up to the
timing field.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import fileio
from .cantor import (
    cantor_decompose,
    in_cantor,
    in_scaled_cantor,
    rational_subspace_refutation,
    scaled_cantor_distance_witness,
    scaled_cantor_level_set,
    scaled_cantor_triple_refutation,
    three_point_search,
    transcendental_embed,
)
from .combiners import COMBINER_NAMES, named_combiner
from .continuation import (
    amenable_isotone_continuation,
    subadditive_envelopes,
    sup_continuation,
)
from .errors import IsoprodError, OutOfRangeError
from .fixtures import GENERATOR_KINDS, fixture_generate
from .metric import (
    ProductSpec,
    extract_product_function,
    product_metric,
    unbounded_gauge,
    unbounded_witness,
    verify_metric,
)
from .modulus import difference_bound_holds, is_fixed_point, modulus, nonconstant_wrt
from .points import PointN
from .sampled import is_amenable, is_isotone, is_subadditive

LEVEL_ENV_VAR = "ISOPROD_LEVEL"
RATIONAL_HELP = "an exact rational such as 7/9; put -- before one that starts with -, as in -- -7/9"


def _default_level(fallback: int) -> int:
    raw = os.environ.get(LEVEL_ENV_VAR)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise IsoprodError(f"{LEVEL_ENV_VAR}={raw!r} is not an integer") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # the usage still goes to stderr, argparse's message to the report
        self.print_usage(sys.stderr)
        raise IsoprodError(message)


def _add_verb(subparsers, command: str, run, **kwargs) -> argparse.ArgumentParser:
    """Add the parser of one command (its last word), bound to its handler."""
    parser = subparsers.add_parser(command.rsplit(" ", 1)[-1], **kwargs)
    parser.set_defaults(command=command, run=run)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; every verb binds its report name and ``_run_*`` handler."""
    parser = _Parser(
        prog="isoprod",
        description="exact checks and constructions for isotone/subadditive "
        "functions, metric products, grid moduli and Cantor-set distances",
    )
    parser.add_argument("--csv", action="store_true", help="emit the verdict table as CSV")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = _add_verb(sub, "check", _run_check, help="isotone / amenable / subadditive verdicts")
    p.add_argument("--function", required=True)

    for verb, run, text in (
        ("extend-sup", _run_extend_sup, "evaluate the extend sup continuation"),
        ("extend-amenable", _run_extend_amenable, "evaluate the extend amenable continuation"),
        ("envelope", _run_envelope, "subadditive envelope values with certificates"),
    ):
        p = _add_verb(sub, verb, run, help=text)
        p.add_argument("--function", required=True)
        p.add_argument("--probe", action="append", default=[])
        p.add_argument("--probes", help="JSON file with an array of point arrays")
    sub.choices["envelope"].add_argument("--c", default="1", help="axis constant for unsupported axes")

    p = _add_verb(sub, "verify-metric", _run_verify_metric, help="metric axioms on a candidate matrix")
    p.add_argument("--space", required=True)
    p.add_argument("--tol", default="0")

    p = _add_verb(sub, "product", _run_product, help="product matrix from factors and a combiner")
    p.add_argument("--spec", help="product spec file")
    p.add_argument("--factor", action="append", default=[])
    p.add_argument("--combiner", choices=COMBINER_NAMES)
    p.add_argument("--combiner-file")
    p.add_argument("--cap", default="1")
    p.add_argument("--verify", action="store_true", help="also verify the metric axioms")

    p = _add_verb(sub, "extract", _run_extract, help="recover the combiner of a product metric")
    p.add_argument("--product", required=True)
    p.add_argument("--factor", action="append", default=[], required=False)
    p.add_argument("--out")

    p = _add_verb(sub, "witness-unbounded", _run_witness_unbounded,
                  help="pair exceeding a bound under the gauged ultrametric")
    p.add_argument("bound", help=RATIONAL_HELP)

    p = _add_verb(sub, "omega", _run_omega, help="grid modulus of continuity at a box")
    p.add_argument("--grid", required=True)
    p.add_argument("--eps", required=True)

    p = _add_verb(sub, "fixed-point", _run_fixed_point, help="is the grid function its own modulus")
    p.add_argument("--grid", required=True)

    p = _add_verb(sub, "lemma42", _run_lemma42, help="check |F(x)-F(y)| <= F(|x-y|) on the lattice")
    p.add_argument("--grid", required=True)

    p = _add_verb(sub, "nonconstant", _run_nonconstant, help="nonconstancy w.r.t. one variable")
    p.add_argument("--grid", required=True)
    p.add_argument("--var", type=int, required=True)

    cantor = sub.add_parser("cantor", help="Cantor set membership and decompositions")
    cantor_sub = cantor.add_subparsers(dest="cantor_verb", required=True)
    for verb, run in (
        ("member", _run_cantor_member),
        ("ce-member", _run_ce_member),
        ("decompose", _run_cantor_decompose),
        ("ce-decompose", _run_ce_decompose),
    ):
        p = _add_verb(cantor_sub, f"cantor {verb}", run)
        p.add_argument("value", help=RATIONAL_HELP)
    p = _add_verb(cantor_sub, "cantor refute-ce-triple", _run_refute_ce_triple)
    p.add_argument("--level", type=int, default=None)

    universal = sub.add_parser("universal", help="three-point line embeddings")
    universal_sub = universal.add_subparsers(dest="universal_verb", required=True)
    p = _add_verb(universal_sub, "universal search", _run_universal)
    p.add_argument("--set", dest="set_file")
    p.add_argument("--ce-level", type=int, default=None)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = _add_verb(sub, "embed", _run_embed, help="isometric shift of rationals into transcendentals")
    p.add_argument("--set", dest="set_file", required=True)

    p = _add_verb(sub, "fixture", _run_fixture, help="deterministic fixture generation")
    p.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--combiner", default="SUM", choices=COMBINER_NAMES)
    p.add_argument("--cap", default="1")
    p.add_argument("--dim", type=int)
    p.add_argument("--size", type=int)
    p.add_argument("--max-points", type=int, default=4)
    p.add_argument("--mode", default="raw", choices=("raw", "isotone", "amenable"))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built by the first dispatch rather than at import."""
    return build_parser()


def _load(loader, path, inputs):
    """Load one input file and record its digest under the path as given."""
    value = loader(path)
    inputs[str(path)] = fileio.file_digest(path)
    return value


def _probes_from_args(args) -> list[PointN]:
    probes = [fileio.parse_point_string(s) for s in args.probe]
    if getattr(args, "probes", None):
        data = json.loads(Path(args.probes).read_text(encoding="utf-8"))
        probes.extend(fileio.parse_point(arr) for arr in data)
    if not probes:
        raise IsoprodError("no probes given; use --probe or --probes")
    return probes


def _point_witness(pair) -> list:
    return [fileio.format_point(p) for p in pair]


def _tolerance(text: str) -> Fraction:
    """An exact nonnegative tolerance; nan, infinities and negatives are input errors."""
    tol = fileio.parse_rational(text)
    if tol < 0:
        raise OutOfRangeError(f"the tolerance must be nonnegative, got {text}")
    return tol


def _metric_axioms_entry(matrix, tol, label_of) -> dict:
    """The metric-axioms verdict; a violation names its points by label_of(index)."""
    ok, violation = verify_metric(matrix, tol)
    entry = {"check": "metric-axioms", "ok": ok}
    if violation is not None:
        entry["witness"] = {
            "kind": violation.kind,
            "labels": [label_of(i) for i in violation.indices],
            "detail": violation.detail,
        }
    return entry


def _run_check(args, inputs):
    f = _load(fileio.load_sampled_function, args.function, inputs)
    verdicts = []
    iso_ok, iso_witness = is_isotone(f)
    verdicts.append(
        {
            "check": "isotone",
            "ok": iso_ok,
            **({"witness": _point_witness(iso_witness)} if iso_witness else {}),
        }
    )
    amen_ok, amen_witness = is_amenable(f)
    verdicts.append(
        {
            "check": "amenable",
            "ok": amen_ok,
            **({"witness": fileio.format_point(amen_witness)} if amen_witness else {}),
        }
    )
    if iso_ok:
        sub_ok, cert = is_subadditive(f)
        entry = {"check": "subadditive", "ok": sub_ok}
        if cert is not None:
            entry["witness"] = fileio.certificate_jsonable(cert)
        verdicts.append(entry)
    else:
        verdicts.append(
            {"check": "subadditive", "ok": False, "skipped": "requires an isotone function"}
        )
    return verdicts


def _run_continuation(args, inputs, continuation):
    f = _load(fileio.load_sampled_function, args.function, inputs)
    verdicts = []
    for probe in _probes_from_args(args):
        value = continuation(f, probe)
        verdicts.append(
            {"check": f"{args.command}{probe}", "ok": True, "value": fileio.format_rational(value)}
        )
    return verdicts


def _run_extend_sup(args, inputs):
    return _run_continuation(args, inputs, sup_continuation)


def _run_extend_amenable(args, inputs):
    return _run_continuation(args, inputs, amenable_isotone_continuation)


def _run_envelope(args, inputs):
    f = _load(fileio.load_sampled_function, args.function, inputs)
    probes = _probes_from_args(args)
    return [
        {
            "check": f"envelope{probe}",
            "ok": True,
            "value": fileio.format_rational(value),
            "certificate": fileio.certificate_jsonable(cert),
        }
        for probe, (value, cert) in zip(probes, subadditive_envelopes(f, probes, fileio.parse_rational(args.c)))
    ]


def _run_verify_metric(args, inputs):
    labels, matrix = _load(fileio.load_matrix, args.space, inputs)
    return [_metric_axioms_entry(matrix, _tolerance(args.tol), labels.__getitem__)]


def _load_product_inputs(args, inputs):
    if args.spec:
        spec, paths = fileio.load_product_spec(args.spec)
        for p in paths:
            inputs[str(p)] = fileio.file_digest(p)
        return spec
    if not args.factor:
        raise IsoprodError("give --spec or at least one --factor")
    factors = [_load(fileio.load_metric_space, path, inputs) for path in args.factor]
    if args.combiner_file:
        combiner = _load(fileio.load_sampled_function, args.combiner_file, inputs)
    elif args.combiner:
        combiner = named_combiner(args.combiner, fileio.parse_rational(args.cap))
    else:
        raise IsoprodError("give --combiner or --combiner-file")
    return ProductSpec(tuple(factors), combiner)


def _run_product(args, inputs):
    spec = _load_product_inputs(args, inputs)
    labels, matrix = product_metric(spec)
    verdicts = [
        {
            "check": "product-matrix",
            "ok": True,
            "matrix": fileio.matrix_jsonable(labels, matrix),
        }
    ]
    if args.verify:
        tol = 0 if getattr(spec.combiner, "exact", True) else 1e-12
        verdicts.append(_metric_axioms_entry(matrix, tol, lambda i: "|".join(labels[i])))
    return verdicts


def _run_extract(args, inputs):
    labels, matrix = _load(fileio.load_matrix, args.product, inputs)
    factors = [_load(fileio.load_metric_space, path, inputs) for path in args.factor]
    if not factors:
        raise IsoprodError("extract needs the factor files (--factor)")
    expected = 1
    for sp in factors:
        expected *= sp.size
    if expected != len(matrix):
        raise IsoprodError(
            f"product of factor sizes is {expected} but the matrix has {len(matrix)} rows"
        )
    f = extract_product_function(matrix, factors)
    if args.out:
        fileio.dump_sampled_function(f, args.out)
    return [
        {
            "check": "extract",
            "ok": True,
            "function": fileio.sampled_function_jsonable(f),
        }
    ]


def _run_witness_unbounded(args, inputs):
    bound = fileio.parse_rational(args.bound)
    x, y = unbounded_witness(bound)
    value = unbounded_gauge(max(x, y))
    return [
        {
            "check": f"witness-unbounded[{bound}]",
            "ok": True,
            "witness": [fileio.format_rational(x), fileio.format_rational(y)],
            "gauged_distance": fileio.format_rational(value),
        }
    ]


def _run_omega(args, inputs):
    g = _load(fileio.load_grid_function, args.grid, inputs)
    eps = fileio.parse_point_string(args.eps)
    value = modulus(g, eps)
    return [
        {"check": f"omega{eps}", "ok": True, "value": fileio.format_rational(value)}
    ]


def _run_fixed_point(args, inputs):
    g = _load(fileio.load_grid_function, args.grid, inputs)
    ok, report = is_fixed_point(g)
    entry = {
        "check": "fixed-point",
        "ok": ok,
        "max_deviation": fileio.format_rational(report.max_deviation),
    }
    if report.at is not None:
        entry["at"] = fileio.format_point(report.at)
    return [entry]


def _run_lemma42(args, inputs):
    g = _load(fileio.load_grid_function, args.grid, inputs)
    ok, witness = difference_bound_holds(g)
    entry = {"check": "difference-bound", "ok": ok}
    if witness is not None:
        entry["witness"] = _point_witness(witness)
    return [entry]


def _run_nonconstant(args, inputs):
    g = _load(fileio.load_grid_function, args.grid, inputs)
    ok = nonconstant_wrt(g, args.var)
    return [{"check": f"nonconstant[{args.var}]", "ok": ok}]


def _run_refute_ce_triple(args, inputs):
    level = args.level if args.level is not None else _default_level(10)
    report = scaled_cantor_triple_refutation(level)
    return [
        {"check": f"refute-ce-triple[level={level}]", "ok": report.ok, "report": report.to_jsonable()}
    ]


def _run_cantor_member(args, inputs):
    t = fileio.parse_rational(args.value)
    return [{"check": f"cantor-member[{t}]", "ok": in_cantor(t)}]


def _run_ce_member(args, inputs):
    t = fileio.parse_rational(args.value)
    return [{"check": f"ce-member[{t}]", "ok": in_scaled_cantor(t)}]


def _difference_witness(verb, t, pair):
    return [
        {
            "check": f"cantor-{verb}[{t}]",
            "ok": True,
            "witness": [fileio.format_rational(v) for v in pair],
        }
    ]


def _run_cantor_decompose(args, inputs):
    t = fileio.parse_rational(args.value)
    return _difference_witness("decompose", t, cantor_decompose(t))


def _run_ce_decompose(args, inputs):
    t = fileio.parse_rational(args.value)
    return _difference_witness("ce-decompose", t, scaled_cantor_distance_witness(t))


def _run_universal(args, inputs):
    if args.set_file:
        values = _load(fileio.load_rational_set, args.set_file, inputs)
        source = args.set_file
    else:
        level = args.ce_level if args.ce_level is not None else _default_level(8)
        values = scaled_cantor_level_set(level)
        source = f"ce-level-{level}"
    a = fileio.parse_rational(args.a)
    b = fileio.parse_rational(args.b)
    triple = three_point_search(values, a, b)
    entry = {"check": f"universal-search[a={a}, b={b}, set={source}]", "ok": triple is not None}
    if triple is not None:
        entry["witness"] = [fileio.format_rational(v) for v in triple]
    return [entry]


def _run_embed(args, inputs):
    values = _load(fileio.load_rational_set, args.set_file, inputs)
    images = transcendental_embed(values)
    # images v + r*tau with one nonzero r differ by exactly (a - b) + 0*tau
    # for every pair, so the pairwise distances are preserved
    coefficients = {img.r for img in images.values()}
    preserved = (
        all(img.q == v for v, img in images.items())
        and len(coefficients) <= 1
        and 0 not in coefficients
    )
    refutations = {}
    for v, img in sorted(images.items()):
        refutations[str(v)] = rational_subspace_refutation(img).statement
    return [
        {
            "check": "embed-isometry",
            "ok": preserved,
            "images": {
                str(v): {"q": fileio.format_rational(img.q), "r": fileio.format_rational(img.r)}
                for v, img in sorted(images.items())
            },
            "non_rationality": refutations,
        }
    ]


def _run_fixture(args, inputs):
    # each generator reads only its own parameters and treats dim=None and
    # size=None as not given
    params = {"dim": args.dim, "size": args.size, "max_points": args.max_points, "mode": args.mode}
    if args.level is not None:
        params["level"] = args.level
    elif args.kind == "ce-level-set":
        params["level"] = _default_level(8)
    if args.kind == "named-combiner-grid":
        params["combiner"] = args.combiner
        params["cap"] = fileio.parse_rational(args.cap)
    paths = fixture_generate(args.kind, args.seed, args.out, **params)
    return [
        {"check": f"fixture[{args.kind}]", "ok": True, "files": [str(p) for p in paths]}
    ]


def dispatch(argv) -> tuple[int, dict]:
    """Run one CLI invocation and return (exit code, run report).

    ``--help`` prints the usage text and raises SystemExit(0), as argparse does.
    """
    try:
        args = _parser().parse_args(argv)
    except IsoprodError as exc:  # raised only by _Parser.error
        return 2, {"command": " ".join(argv), "error": str(exc)}
    started = time.perf_counter()
    inputs: dict[str, str] = {}
    command = args.command
    try:
        verdicts = args.run(args, inputs)
    except (IsoprodError, ValueError, IndexError, OSError, KeyError, json.JSONDecodeError) as exc:
        report = {
            "command": command,
            "inputs": inputs,
            "error": f"{type(exc).__name__}: {exc}",
        }
        return 2, report
    except Exception as exc:
        import traceback  # only a crash pays for the import, not every start

        traceback.print_exc(file=sys.stderr)
        error = f"internal error: {type(exc).__name__}: {exc}"
        return 3, {"command": command, "inputs": inputs, "error": error}
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    report = {
        "command": command,
        "inputs": inputs,
        "verdicts": verdicts,
        "timing_ms": elapsed_ms,
    }
    code = 0 if all(v["ok"] for v in verdicts) else 1
    return code, report


def render(report: dict, as_csv: bool = False) -> str:
    if not as_csv:
        return json.dumps(report, indent=2)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["check", "ok", "detail"])
    for v in report.get("verdicts", []):
        detail = {k: val for k, val in v.items() if k not in ("check", "ok")}
        blob = json.dumps(detail, separators=(",", ":")) if detail else ""
        writer.writerow([v["check"], str(v["ok"]).lower(), blob])
    if "error" in report:
        # quoted whatever it holds, as it always was, so error rows keep their bytes
        out.write("error,false,")
        csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL).writerow([report["error"]])
    return out.getvalue().rstrip("\n")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    as_csv = "--csv" in argv
    code, report = dispatch(argv)
    print(render(report, as_csv=as_csv))
    if "error" in report:
        print(report["error"], file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
