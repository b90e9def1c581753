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
loads only the standard library, ``errors`` and ``text``.  The table names
each handler as "module.function", in a module of its verb family
(``verbs_sampled``, ``verbs_metric``, ``verbs_grid``, ``verbs_cantor``) that
is imported when the verb runs; a verb that reads no file never imports
``fileio``.  An argv that names a verb after its leading --csv flags is
parsed by that verb's branch alone (3 parsers of the 23), and a verb's
arguments are added the first time it parses; any other argv, and one the
branch refuses, is parsed again by the whole tree, which writes every help,
usage and error text.  So a process compiles and builds only what its verb
runs: with ``PYTHONDONTWRITEBYTECODE=1`` no bytecode cache is written, and
each start compiles every isoprod module it imports, which costs more than
most jobs' own work.  ``import isoprod.cli`` loads every module instead.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import dropwhile

from .errors import IsoprodError
from .text import indented_json

RATIONAL_HELP = "an exact rational such as 7/9; put -- before one that starts with -, as in -- -7/9"


# -- the verb table ----------------------------------------------------------
# An argument is its name and add_argument's keywords; a choices string
# "module.NAME" names the tuple that the verb's first parse imports, as a
# handler "module.function" names the function that the verb's run imports.

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
    ("check", "isotone / amenable / subadditive verdicts", "verbs_sampled.run_check", FUNCTION),
    ("extend-sup", "evaluate the extend sup continuation", "verbs_sampled.run_continuation", PROBES),
    ("extend-amenable", "evaluate the extend amenable continuation", "verbs_sampled.run_continuation", PROBES),
    ("envelope", "subadditive envelope values with certificates", "verbs_sampled.run_envelope",
     {**PROBES, "--c": {"default": "1", "help": "axis constant for unsupported axes"}}),
    ("verify-metric", "metric axioms on a candidate matrix", "verbs_metric.run_verify_metric",
     {"--space": REQUIRED, "--tol": {"default": "0"}}),
    ("product", "product matrix from factors and a combiner", "verbs_metric.run_product", {
        "--spec": {"help": "product spec file"},
        "--factor": {"action": "append", "default": []},
        "--combiner": {"choices": COMBINERS},
        "--combiner-file": {},
        "--cap": {"default": "1"},
        "--verify": {"action": "store_true", "help": "also verify the metric axioms"},
    }),
    ("extract", "recover the combiner of a product metric", "verbs_metric.run_extract", {
        "--product": REQUIRED,
        "--factor": {"action": "append", "default": []},
        "--out": {},
    }),
    ("witness-unbounded", "pair exceeding a bound under the gauged ultrametric", "verbs_metric.run_witness_unbounded",
     {"bound": {"help": RATIONAL_HELP}}),
    ("omega", "grid modulus of continuity at a box", "verbs_grid.run_omega", {**GRID, "--eps": REQUIRED}),
    ("fixed-point", "is the grid function its own modulus", "verbs_grid.run_fixed_point", GRID),
    ("lemma42", "check |F(x)-F(y)| <= F(|x-y|) on the lattice", "verbs_grid.run_lemma42", GRID),
    ("nonconstant", "nonconstancy w.r.t. one variable", "verbs_grid.run_nonconstant",
     {**GRID, "--var": {"type": int, "required": True}}),
    ("cantor member", None, "verbs_cantor.run_member", RATIONAL),
    ("cantor ce-member", None, "verbs_cantor.run_member", RATIONAL),
    ("cantor decompose", None, "verbs_cantor.run_decompose", RATIONAL),
    ("cantor ce-decompose", None, "verbs_cantor.run_decompose", RATIONAL),
    ("cantor refute-ce-triple", None, "verbs_cantor.run_refute_ce_triple", {"--level": {**INT, "default": 10}}),
    ("universal search", None, "verbs_cantor.run_search", {
        "--set": {"dest": "set_file"},
        "--ce-level": {**INT, "default": 8},
        "--a": REQUIRED,
        "--b": REQUIRED,
    }),
    ("embed", "isometric shift of rationals into transcendentals", "verbs_cantor.run_embed",
     {"--set": {"dest": "set_file", "required": True}}),
    ("fixture", "deterministic fixture generation", "verbs_metric.run_fixture", {
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
COMMANDS = {command for command, *_ in VERBS}


def _named(spec: str):
    """The object that a "module.NAME" string of the table names, its module imported (by the
    import statement's own path, which ``-X importtime`` reports)."""
    module, name = spec.split(".")
    return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)


class _Parser(argparse.ArgumentParser):
    """A parser whose arguments are added when it first parses."""

    _pending: dict = {}

    def _add_pending(self):
        pending, self._pending = self._pending, {}
        for name, options in pending.items():
            if isinstance(options.get("choices"), str):
                options = {**options, "choices": _named(options["choices"])}
            self.add_argument(name, **options)

    def parse_known_args(self, args=None, namespace=None):  # a verb's usage and help come from its parse
        self._add_pending()
        return super().parse_known_args(args, namespace)

    def error(self, message):  # the usage still goes to stderr, argparse's message to the report
        self.print_usage(sys.stderr)
        raise IsoprodError(message)


class _Branch(_Parser):
    """A parser of one verb's branch: it raises its errors unprinted, for the whole tree to parse again."""

    def error(self, message):
        raise IsoprodError(message)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of the verb table, or of the branch of the verb only; every verb binds its
    report name and handler."""
    parser = (_Parser if only is None else _Branch)(
        prog="isoprod",
        description="exact checks and constructions for isotone/subadditive "
        "functions, metric products, grid moduli and Cantor-set distances",
    )
    parser.add_argument("--csv", action="store_true", help="emit the verdict table as CSV")
    groups = {"": parser.add_subparsers(dest="verb", required=True)}
    for command, text, run, arguments in VERBS:
        if only not in (None, command):
            continue
        group, _, word = command.rpartition(" ")
        if group not in groups:
            group_parser = groups[""].add_parser(group, help=GROUP_HELP[group])
            groups[group] = group_parser.add_subparsers(dest=f"{group}_verb", required=True)
        verb = groups[group].add_parser(word, **({"help": text} if text else {}))
        verb.set_defaults(command=command, run=run)
        verb._pending = arguments
    return parser


@functools.cache
def _parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of this process, or of one verb's branch, built by the first dispatch that needs it."""
    return build_parser(only)


def _parse(argv) -> argparse.Namespace:
    """argv parsed by the branch of the verb it names after its leading --csv flags, if it names one and
    the branch takes it; else by the whole tree."""
    words = list(dropwhile("--csv".__eq__, argv))[:2]
    for command in (" ".join(words[:1]), " ".join(words)):
        if command in COMMANDS:
            try:
                return _parser(command).parse_args(argv)
            except IsoprodError:
                break
    return _parser().parse_args(argv)


def dispatch(argv) -> tuple[int, dict]:
    """Run one CLI invocation and return (exit code, run report).

    ``--help`` prints the usage text and raises SystemExit(0), as argparse does.
    """
    return _dispatch(argv)[:2]


def _dispatch(argv) -> tuple[int, dict, bool]:
    """The exit code and run report of :func:`dispatch`, and whether to render them as CSV: as the
    parse set --csv, or after a parse error, when argv leads with --csv, the flag :func:`_parse` reads."""
    try:
        args = _parse(argv)
    except IsoprodError as exc:  # raised only by _Parser.error
        return 2, {"command": " ".join(argv), "error": str(exc)}, argv[:1] == ["--csv"]
    started = time.perf_counter()
    inputs: dict[str, str] = {}
    command = args.command
    try:
        verdicts = _named(args.run)(args, inputs)
    except (IsoprodError, ValueError, IndexError, OSError) as exc:
        return 2, {"command": command, "inputs": inputs, "error": f"{type(exc).__name__}: {exc}"}, args.csv
    except Exception as exc:
        import traceback  # only a crash pays for the import, not every start

        traceback.print_exc(file=sys.stderr)
        error = f"internal error: {type(exc).__name__}: {exc}"
        return 3, {"command": command, "inputs": inputs, "error": error}, args.csv
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    report = {
        "command": command,
        "inputs": inputs,
        "verdicts": verdicts,
        "timing_ms": elapsed_ms,
    }
    return (0 if all(v["ok"] for v in verdicts) else 1), report, args.csv


def render(report: dict, as_csv: bool = False) -> str:
    """The report as ``json.dumps(report, indent=2)`` writes it (by ``text.indented_json``), or as CSV."""
    if not as_csv:
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
    code, report, as_csv = _dispatch(argv)
    print(render(report, as_csv=as_csv))
    if "error" in report:
        print(report["error"], file=sys.stderr)
    return code
