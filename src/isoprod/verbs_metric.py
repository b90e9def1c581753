"""The handlers of the metric verbs (verify-metric, product, extract, witness-unbounded) and of fixture.

witness-unbounded reads no file, so ``fileio`` is imported by the verbs that read one.
"""

from functools import partial

from . import metric
from .errors import IsoprodError, OutOfRangeError
from .text import format_rational, parse_rational


def _metric_axioms_entry(matrix, tol, label_of, values, squares=None, factors=()) -> dict:
    """The metric-axioms verdict of a matrix of codes into values (decided on their squares, given
    those; proved on the factors' triples first, given those); a violation names its points by label_of(index)."""
    proved = factors and metric.product_metric_proved(factors, values, squares)
    ok, violation = (True, None) if proved else metric.verify_metric(matrix, tol, values=values, squares=squares)
    entry = {"check": "metric-axioms", "ok": ok}
    if violation is not None:
        entry["witness"] = {"kind": violation.kind, "labels": [label_of(i) for i in violation.indices],
                            "detail": violation.detail}
    return entry


def run_verify_metric(args, inputs):
    from . import fileio

    values = []
    labels, codes = fileio.load_recorded(partial(fileio.load_matrix, square=True, values=values), args.space, inputs)
    tol = parse_rational(args.tol)  # exact: nan and infinities are input errors
    if tol < 0:
        raise OutOfRangeError(f"the tolerance must be nonnegative, got {args.tol}")
    return [_metric_axioms_entry(codes, tol, labels.__getitem__, values)]


def _product_spec(args, inputs):
    from . import fileio

    if args.spec:
        return fileio.load_recorded(fileio.load_product_spec, args.spec, inputs)[0]
    if not args.factor:
        raise IsoprodError("give --spec or at least one --factor")
    factors = [fileio.load_recorded(fileio.load_metric_space, path, inputs) for path in args.factor]
    if args.combiner_file:
        combiner = fileio.load_recorded(fileio.load_sampled_function, args.combiner_file, inputs)
    elif args.combiner:
        from .combiners import named_combiner

        combiner = named_combiner(args.combiner, parse_rational(args.cap))
    else:
        raise IsoprodError("give --combiner or --combiner-file")
    return metric.ProductSpec(tuple(factors), combiner)


def run_product(args, inputs):
    """The product matrix, and with --verify its verdict: proved on factor triples, else by the matrix scan."""
    from itertools import product

    from . import fileio
    from .combiners import named_combiner

    spec = _product_spec(args, inputs)
    table = []  # the combiner's value at each grid index; the matrix holds the indices
    labels, codes = metric.product_metric(spec, values=table)
    verdicts = [{"check": "product-matrix", "ok": True, "matrix": fileio.matrix_jsonable(labels, codes, values=table)}]
    if args.verify:
        squares = None
        if not getattr(spec.combiner, "exact", True):  # SQRT_SUM_SQ: decided exactly on its squares, indexed as table
            squares = list(map(named_combiner("SQUARE_SUM"), product(*(sp.distance_set() for sp in spec.factors))))
        verdicts.append(_metric_axioms_entry(codes, 0, lambda i: "|".join(labels[i]), table, squares, spec.factors))
    return verdicts


def run_extract(args, inputs):
    from . import fileio

    labels, matrix = fileio.load_recorded(fileio.load_matrix, args.product, inputs)
    factors = [fileio.load_recorded(fileio.load_metric_space, path, inputs) for path in args.factor]
    if not factors:
        raise IsoprodError("extract needs the factor files (--factor)")
    f = metric.extract_product_function(matrix, factors)
    if args.out:
        fileio.dump_sampled_function(f, args.out)
    return [{"check": "extract", "ok": True, "function": fileio.sampled_function_jsonable(f)}]


def run_witness_unbounded(args, inputs):
    bound = parse_rational(args.bound)
    x, y = metric.unbounded_witness(bound)
    value = metric.unbounded_gauge(max(x, y))
    return [{"check": f"witness-unbounded[{bound}]", "ok": True, "witness": [format_rational(x), format_rational(y)],
             "gauged_distance": format_rational(value)}]


def run_fixture(args, inputs):
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
