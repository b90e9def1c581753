"""Batch command-line front end: one table of verbs, each loading only its own modules.

Every invocation prints one JSON run report (or a CSV verdict table
with --csv) and exits 0 when all verdicts hold, 1 when some verdict is
false (the report then carries a witness), 2 on input errors, and 3
on an internal error.  Input errors are IsoprodErrors (a file's are
LoadErrors that name it), OSErrors, and the ValueErrors and IndexErrors the
library raises for bad arguments; any other exception, a KeyError too, is
internal, and its report carries "internal error: <type>: <message>".
Reports are stable: identical inputs give identical output up to the
timing field.

``python -m isoprod`` runs :func:`main` from here.  At import this module
loads only the standard library and ``errors``; each ``_run_*`` handler
imports its library names in its own body, and a verb's arguments are
added to its parser the first time that verb is parsed.  So a process
compiles and imports only the modules its verb needs: with
``PYTHONDONTWRITEBYTECODE=1`` no bytecode cache is written, and each
start compiles every isoprod module it imports, which costs more than
most jobs' own work.  ``import isoprod.cli`` loads every module instead.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .errors import IsoprodError, MissingOriginError, OutOfRangeError

RATIONAL_HELP = "an exact rational such as 7/9; put -- before one that starts with -, as in -- -7/9"


def _load(loader, path, inputs):
    """Load one input file and record its digest under the path as given."""
    from .fileio import file_digest

    value = loader(path)
    inputs[str(path)] = file_digest(path)
    return value


def _probes_from_args(args) -> list:
    from .fileio import load_points, parse_point_string

    probes = [parse_point_string(s) for s in args.probe]
    if getattr(args, "probes", None):
        probes.extend(load_points(args.probes))
    if not probes:
        raise IsoprodError("no probes given; use --probe or --probes")
    return probes


def _point_witness(pair) -> list:
    from .fileio import format_point

    return [format_point(p) for p in pair]


def _metric_axioms_entry(matrix, tol, label_of, values, squares=None) -> dict:
    """The metric-axioms verdict of a matrix of codes into values (decided on their squares, given
    those); a violation names its points by label_of(index)."""
    from .metric import verify_metric

    ok, violation = verify_metric(matrix, tol, values=values, squares=squares)
    entry = {"check": "metric-axioms", "ok": ok}
    if violation is not None:
        entry["witness"] = {
            "kind": violation.kind,
            "labels": [label_of(i) for i in violation.indices],
            "detail": violation.detail,
        }
    return entry


def _run_check(args, inputs):
    from . import fileio
    from .sampled import is_amenable, is_isotone, is_subadditive

    f = _load(fileio.load_sampled_function, args.function, inputs)
    iso_ok, iso_witness = is_isotone(f)
    verdicts = [{"check": "isotone", "ok": iso_ok, **({"witness": _point_witness(iso_witness)} if iso_witness else {})}]
    try:
        amen_ok, amen_witness = is_amenable(f)
    except MissingOriginError:
        verdicts.append({"check": "amenable", "ok": False, "skipped": "requires the origin as a sample point"})
    else:
        verdicts.append(
            {"check": "amenable", "ok": amen_ok, **({"witness": fileio.format_point(amen_witness)} if amen_witness else {})}
        )
    if iso_ok:
        sub_ok, cert = is_subadditive(f)
        entry = {"check": "subadditive", "ok": sub_ok}
        if cert is not None:
            entry["witness"] = fileio.certificate_jsonable(cert)
        verdicts.append(entry)
    else:
        verdicts.append({"check": "subadditive", "ok": False, "skipped": "requires an isotone function"})
    return verdicts


def _run_continuation(args, inputs):
    from . import continuation, fileio

    extend = {"extend-sup": continuation.sup_continuation,
              "extend-amenable": continuation.amenable_isotone_continuation}[args.command]
    f = _load(fileio.load_sampled_function, args.function, inputs)
    return [
        {"check": f"{args.command}{probe}", "ok": True, "value": fileio.format_rational(extend(f, probe))}
        for probe in _probes_from_args(args)
    ]


def _run_envelope(args, inputs):
    from . import fileio
    from .continuation import subadditive_envelopes

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
    from .fileio import load_matrix, parse_rational

    values = []
    labels, codes = _load(functools.partial(load_matrix, square=True, values=values), args.space, inputs)
    tol = parse_rational(args.tol)  # exact: nan and infinities are input errors
    if tol < 0:
        raise OutOfRangeError(f"the tolerance must be nonnegative, got {args.tol}")
    return [_metric_axioms_entry(codes, tol, labels.__getitem__, values)]


def _load_product_inputs(args, inputs):
    from . import fileio
    from .metric import ProductSpec

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
        from .combiners import named_combiner

        combiner = named_combiner(args.combiner, fileio.parse_rational(args.cap))
    else:
        raise IsoprodError("give --combiner or --combiner-file")
    return ProductSpec(tuple(factors), combiner)


def _run_product(args, inputs):
    from itertools import product

    from .combiners import named_combiner
    from .fileio import matrix_jsonable
    from .metric import product_metric

    spec = _load_product_inputs(args, inputs)
    table = []  # the combiner's value at each grid index; the matrix holds the indices
    labels, codes = product_metric(spec, values=table)
    verdicts = [{"check": "product-matrix", "ok": True, "matrix": matrix_jsonable(labels, codes, values=table)}]
    if args.verify:
        squares = None
        if not getattr(spec.combiner, "exact", True):  # SQRT_SUM_SQ: decided exactly on its squares, indexed as table
            squares = list(map(named_combiner("SQUARE_SUM"), product(*(sp.distance_set() for sp in spec.factors))))
        verdicts.append(_metric_axioms_entry(codes, 0, lambda i: "|".join(labels[i]), table, squares))
    return verdicts


def _run_extract(args, inputs):
    from . import fileio
    from .metric import extract_product_function

    labels, matrix = _load(fileio.load_matrix, args.product, inputs)
    factors = [_load(fileio.load_metric_space, path, inputs) for path in args.factor]
    if not factors:
        raise IsoprodError("extract needs the factor files (--factor)")
    f = extract_product_function(matrix, factors)
    if args.out:
        fileio.dump_sampled_function(f, args.out)
    return [{"check": "extract", "ok": True, "function": fileio.sampled_function_jsonable(f)}]


def _run_witness_unbounded(args, inputs):
    from .fileio import format_rational, parse_rational
    from .metric import unbounded_gauge, unbounded_witness

    bound = parse_rational(args.bound)
    x, y = unbounded_witness(bound)
    value = unbounded_gauge(max(x, y))
    return [
        {
            "check": f"witness-unbounded[{bound}]",
            "ok": True,
            "witness": [format_rational(x), format_rational(y)],
            "gauged_distance": format_rational(value),
        }
    ]


def _run_omega(args, inputs):
    from .fileio import format_rational, load_grid_function, parse_point_string
    from .modulus import modulus

    g = _load(load_grid_function, args.grid, inputs)
    eps = parse_point_string(args.eps)
    return [{"check": f"omega{eps}", "ok": True, "value": format_rational(modulus(g, eps))}]


def _run_fixed_point(args, inputs):
    from . import fileio
    from .modulus import is_fixed_point

    ok, report = is_fixed_point(_load(fileio.load_grid_function, args.grid, inputs))
    entry = {"check": "fixed-point", "ok": ok, "max_deviation": fileio.format_rational(report.max_deviation)}
    if report.at is not None:
        entry["at"] = fileio.format_point(report.at)
    return [entry]


def _run_lemma42(args, inputs):
    from .fileio import load_grid_function
    from .modulus import difference_bound_holds

    ok, witness = difference_bound_holds(_load(load_grid_function, args.grid, inputs))
    entry = {"check": "difference-bound", "ok": ok}
    if witness is not None:
        entry["witness"] = _point_witness(witness)
    return [entry]


def _run_nonconstant(args, inputs):
    from .fileio import load_grid_function
    from .modulus import nonconstant_wrt

    ok = nonconstant_wrt(_load(load_grid_function, args.grid, inputs), args.var)
    return [{"check": f"nonconstant[{args.var}]", "ok": ok}]


def _run_refute_ce_triple(args, inputs):
    from .cantor import scaled_cantor_triple_refutation

    report = scaled_cantor_triple_refutation(args.level)
    return [{"check": f"refute-ce-triple[level={args.level}]", "ok": report.ok, "report": report.to_jsonable()}]


def _run_cantor_member(args, inputs):
    from . import cantor
    from .fileio import parse_rational

    t = parse_rational(args.value)
    if args.command == "cantor member":
        return [{"check": f"cantor-member[{t}]", "ok": cantor.in_cantor(t)}]
    return [{"check": f"ce-member[{t}]", "ok": cantor.in_scaled_cantor(t)}]


def _run_cantor_decompose(args, inputs):
    from . import cantor
    from .fileio import format_rational, parse_rational

    t = parse_rational(args.value)
    verb = args.command.split()[1]
    pair = (cantor.cantor_decompose if verb == "decompose" else cantor.scaled_cantor_distance_witness)(t)
    return [{"check": f"cantor-{verb}[{t}]", "ok": True, "witness": [format_rational(v) for v in pair]}]


def _run_universal(args, inputs):
    from .cantor import scaled_cantor_level_set, three_point_search
    from .fileio import format_rational, load_rational_set, parse_rational

    if args.set_file:
        values = _load(load_rational_set, args.set_file, inputs)
        source = args.set_file
    else:
        values = scaled_cantor_level_set(args.ce_level)
        source = f"ce-level-{args.ce_level}"
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    triple = three_point_search(values, a, b)
    entry = {"check": f"universal-search[a={a}, b={b}, set={source}]", "ok": triple is not None}
    if triple is not None:
        entry["witness"] = [format_rational(v) for v in triple]
    return [entry]


def _run_embed(args, inputs):
    from .cantor import rational_subspace_refutation, transcendental_embed
    from .fileio import format_rational, load_rational_set

    images = transcendental_embed(_load(load_rational_set, args.set_file, inputs))
    # images v + r*tau with one nonzero r differ by exactly (a - b) + 0*tau
    # for every pair, so the pairwise distances are preserved
    coefficients = {img.r for img in images.values()}
    preserved = all(img.q == v for v, img in images.items()) and len(coefficients) <= 1 and 0 not in coefficients
    ordered = sorted(images.items())
    refutations = {str(v): rational_subspace_refutation(img).statement for v, img in ordered}
    return [
        {
            "check": "embed-isometry",
            "ok": preserved,
            "images": {str(v): {"q": format_rational(img.q), "r": format_rational(img.r)} for v, img in ordered},
            "non_rationality": refutations,
        }
    ]


def _run_fixture(args, inputs):
    from .fileio import parse_rational
    from .fixtures import fixture_generate

    # each generator reads only its own parameters and treats dim=None and
    # size=None as not given
    params = {"dim": args.dim, "size": args.size, "max_points": args.max_points, "mode": args.mode}
    if args.level is not None:
        params["level"] = args.level
    if args.kind == "named-combiner-grid":
        params["combiner"] = args.combiner
        params["cap"] = parse_rational(args.cap)
    paths = fixture_generate(args.kind, args.seed, args.out, **params)
    return [{"check": f"fixture[{args.kind}]", "ok": True, "files": [str(p) for p in paths]}]


# -- the verb table ----------------------------------------------------------
# An argument is its name and add_argument's keywords; a choices string
# "module.NAME" names the tuple that the verb's first parse imports.

REQUIRED = {"required": True}
INT = {"type": int}
FUNCTION = {"--function": REQUIRED}
PROBES = {
    **FUNCTION,
    "--probe": {"action": "append", "default": []},
    "--probes": {"help": "JSON file with an array of point arrays"},
}
GRID = {"--grid": REQUIRED}
RATIONAL = {"value": {"help": RATIONAL_HELP}}
COMBINERS = "combiners.COMBINER_NAMES"

GROUP_HELP = {
    "cantor": "Cantor set membership and decompositions",
    "universal": "three-point line embeddings",
}

# (command words, help text or None, handler, arguments), in the order of the usage text
VERBS = (
    ("check", "isotone / amenable / subadditive verdicts", _run_check, FUNCTION),
    ("extend-sup", "evaluate the extend sup continuation", _run_continuation, PROBES),
    ("extend-amenable", "evaluate the extend amenable continuation", _run_continuation, PROBES),
    ("envelope", "subadditive envelope values with certificates", _run_envelope,
     {**PROBES, "--c": {"default": "1", "help": "axis constant for unsupported axes"}}),
    ("verify-metric", "metric axioms on a candidate matrix", _run_verify_metric,
     {"--space": REQUIRED, "--tol": {"default": "0"}}),
    ("product", "product matrix from factors and a combiner", _run_product, {
        "--spec": {"help": "product spec file"},
        "--factor": {"action": "append", "default": []},
        "--combiner": {"choices": COMBINERS},
        "--combiner-file": {},
        "--cap": {"default": "1"},
        "--verify": {"action": "store_true", "help": "also verify the metric axioms"},
    }),
    ("extract", "recover the combiner of a product metric", _run_extract, {
        "--product": REQUIRED,
        "--factor": {"action": "append", "default": []},
        "--out": {},
    }),
    ("witness-unbounded", "pair exceeding a bound under the gauged ultrametric", _run_witness_unbounded,
     {"bound": {"help": RATIONAL_HELP}}),
    ("omega", "grid modulus of continuity at a box", _run_omega, {**GRID, "--eps": REQUIRED}),
    ("fixed-point", "is the grid function its own modulus", _run_fixed_point, GRID),
    ("lemma42", "check |F(x)-F(y)| <= F(|x-y|) on the lattice", _run_lemma42, GRID),
    ("nonconstant", "nonconstancy w.r.t. one variable", _run_nonconstant,
     {**GRID, "--var": {"type": int, "required": True}}),
    ("cantor member", None, _run_cantor_member, RATIONAL),
    ("cantor ce-member", None, _run_cantor_member, RATIONAL),
    ("cantor decompose", None, _run_cantor_decompose, RATIONAL),
    ("cantor ce-decompose", None, _run_cantor_decompose, RATIONAL),
    ("cantor refute-ce-triple", None, _run_refute_ce_triple, {"--level": {**INT, "default": 10}}),
    ("universal search", None, _run_universal, {
        "--set": {"dest": "set_file"},
        "--ce-level": {**INT, "default": 8},
        "--a": REQUIRED,
        "--b": REQUIRED,
    }),
    ("embed", "isometric shift of rationals into transcendentals", _run_embed,
     {"--set": {"dest": "set_file", "required": True}}),
    ("fixture", "deterministic fixture generation", _run_fixture, {
        "--kind": {"required": True, "choices": "fixtures.GENERATOR_KINDS"},
        "--seed": {"type": int, "default": 0},
        "--out": REQUIRED,
        "--level": INT,
        "--combiner": {"default": "SUM", "choices": COMBINERS},
        "--cap": {"default": "1"},
        "--dim": INT,
        "--size": INT,
        "--max-points": {"type": int, "default": 4},
        "--mode": {"default": "raw", "choices": ("raw", "isotone", "amenable")},
    }),
)


class _Parser(argparse.ArgumentParser):
    """A parser whose arguments are added when it first parses."""

    _pending: dict = {}

    def _add_pending(self):
        pending, self._pending = self._pending, {}
        for name, options in pending.items():
            choices = options.get("choices")
            if isinstance(choices, str):
                from importlib import import_module

                module, attr = choices.split(".")
                options = {**options, "choices": getattr(import_module(f".{module}", __package__), attr)}
            self.add_argument(name, **options)

    def parse_known_args(self, args=None, namespace=None):  # a verb's usage and help come from its parse
        self._add_pending()
        return super().parse_known_args(args, namespace)

    def error(self, message):  # the usage still goes to stderr, argparse's message to the report
        self.print_usage(sys.stderr)
        raise IsoprodError(message)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the verb table; every verb binds its report name and handler."""
    parser = _Parser(
        prog="isoprod",
        description="exact checks and constructions for isotone/subadditive "
        "functions, metric products, grid moduli and Cantor-set distances",
    )
    parser.add_argument("--csv", action="store_true", help="emit the verdict table as CSV")
    groups = {"": parser.add_subparsers(dest="verb", required=True)}
    for command, text, run, arguments in VERBS:
        group, _, word = command.rpartition(" ")
        if group not in groups:
            group_parser = groups[""].add_parser(group, help=GROUP_HELP[group])
            groups[group] = group_parser.add_subparsers(dest=f"{group}_verb", required=True)
        verb = groups[group].add_parser(word, **({"help": text} if text else {}))
        verb.set_defaults(command=command, run=run)
        verb._pending = arguments
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built by the first dispatch rather than at import."""
    return build_parser()


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
    except (IsoprodError, ValueError, IndexError, OSError) as exc:
        return 2, {"command": command, "inputs": inputs, "error": f"{type(exc).__name__}: {exc}"}
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
    """The report as ``json.dumps(report, indent=2)`` writes it (by ``fileio.indented_json``), or as CSV."""
    if not as_csv:
        from .fileio import indented_json

        return indented_json(report)
    import csv
    import io

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
