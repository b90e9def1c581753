"""The handlers of the base-3 verbs: cantor, universal search and embed.

Only ``universal search --set`` and ``embed`` read a file, so they alone import ``fileio``.
"""

from . import cantor
from .text import format_rational, parse_rational


def run_member(args, inputs):
    t = parse_rational(args.value)
    if args.command == "cantor member":
        return [{"check": f"cantor-member[{t}]", "ok": cantor.in_cantor(t)}]
    return [{"check": f"ce-member[{t}]", "ok": cantor.in_scaled_cantor(t)}]


def run_decompose(args, inputs):
    t = parse_rational(args.value)
    verb = args.command.split()[1]
    pair = (cantor.cantor_decompose if verb == "decompose" else cantor.scaled_cantor_distance_witness)(t)
    return [{"check": f"cantor-{verb}[{t}]", "ok": True, "witness": [format_rational(v) for v in pair]}]


def run_refute_ce_triple(args, inputs):
    report = cantor.scaled_cantor_triple_refutation(args.level)
    return [{"check": f"refute-ce-triple[level={args.level}]", "ok": report.ok, "report": report.to_jsonable()}]


def run_search(args, inputs):
    if args.set_file:
        from .fileio import load_rational_set, load_recorded

        values = load_recorded(load_rational_set, args.set_file, inputs)
        source = args.set_file
    else:
        values = cantor.scaled_cantor_level_set(args.ce_level)
        source = f"ce-level-{args.ce_level}"
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    triple = cantor.three_point_search(values, a, b)
    entry = {"check": f"universal-search[a={a}, b={b}, set={source}]", "ok": triple is not None}
    if triple is not None:
        entry["witness"] = [format_rational(v) for v in triple]
    return [entry]


def run_embed(args, inputs):
    from .fileio import load_rational_set, load_recorded

    images = cantor.transcendental_embed(load_recorded(load_rational_set, args.set_file, inputs))
    # images v + r*tau with one nonzero r differ by exactly (a - b) + 0*tau
    # for every pair, so the pairwise distances are preserved
    coefficients = {img.r for img in images.values()}
    preserved = all(img.q == v for v, img in images.items()) and len(coefficients) <= 1 and 0 not in coefficients
    ordered = sorted(images.items())
    refutations = {str(v): cantor.rational_subspace_refutation(img).statement for v, img in ordered}
    return [{"check": "embed-isometry", "ok": preserved,
             "images": {str(v): {"q": format_rational(img.q), "r": format_rational(img.r)} for v, img in ordered},
             "non_rationality": refutations}]
