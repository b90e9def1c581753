"""The handlers of the grid verbs: omega, fixed-point, lemma42 and nonconstant."""

from . import fileio, modulus


def _grid(args, inputs):
    return fileio.load_recorded(fileio.load_grid_function, args.grid, inputs)


def run_omega(args, inputs):
    g = _grid(args, inputs)
    eps = fileio.parse_point_string(args.eps)
    return [{"check": f"omega{eps}", "ok": True, "value": fileio.format_rational(modulus.modulus(g, eps))}]


def run_fixed_point(args, inputs):
    ok, report = modulus.is_fixed_point(_grid(args, inputs))
    entry = {"check": "fixed-point", "ok": ok, "max_deviation": fileio.format_rational(report.max_deviation)}
    if report.at is not None:
        entry["at"] = fileio.format_point(report.at)
    return [entry]


def run_lemma42(args, inputs):
    ok, witness = modulus.difference_bound_holds(_grid(args, inputs))
    entry = {"check": "difference-bound", "ok": ok}
    if witness is not None:
        entry["witness"] = list(map(fileio.format_point, witness))
    return [entry]


def run_nonconstant(args, inputs):
    ok = modulus.nonconstant_wrt(_grid(args, inputs), args.var)
    return [{"check": f"nonconstant[{args.var}]", "ok": ok}]
