"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions named in ``SPANS``.  The
package imports functions by name, so every isoprod module attribute
bound to a wrapped function is patched, not just the defining one.  A
span is (job, name, start, end, parent); spans stay in memory until the
benchmark writes them out.  Self time is a span's duration minus the
time its child spans cover.  Counts are taken from argument sizes and
returned values only, so they repeat exactly for the same inputs.

``points`` has no span: its functions run inside every loop of the
layers above, and wrapping them would measure the wrapper.  Combiner
calls run once per product-matrix entry, so they are summed in place
(count and time) instead of being kept as spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict


def _rationals_in(result) -> int:
    """Rationals a loader parsed, counted from what it returned."""
    from isoprod.metric import FiniteMetricSpace, ProductSpec
    from isoprod.modulus import GridFunction
    from isoprod.sampled import SampledFunction

    if isinstance(result, SampledFunction):
        return len(result) * (result.dim + 1)
    if isinstance(result, FiniteMetricSpace):
        return result.size ** 2
    if isinstance(result, GridFunction):
        return (result.cells + 1) ** result.n * (result.n + 1) + 2
    if isinstance(result, ProductSpec):
        total = sum(sp.size ** 2 for sp in result.factors)
        if isinstance(result.combiner, SampledFunction):
            total += _rationals_in(result.combiner)
        return total
    if isinstance(result, tuple) and len(result) == 2:
        if isinstance(result[0], ProductSpec):  # load_product_spec
            return _rationals_in(result[0])
        return len(result[1]) ** 2  # load_matrix: (labels, rows)
    return len(result)  # load_rational_set


def _count_load(tracer, args, kwargs, result, parent):
    if parent is not None and parent.startswith("fileio."):
        return  # the outermost loader counts the whole file set once
    from isoprod.metric import ProductSpec

    if isinstance(result, tuple) and isinstance(result[0], ProductSpec):
        paths = result[1]  # load_product_spec: the spec and every file it read
    else:
        paths = [args[0]]
    tracer.counts["fileio.bytes_read"] += sum(os.path.getsize(p) for p in paths)
    tracer.counts["fileio.rationals_parsed"] += _rationals_in(result)


def _count_report(tracer, args, kwargs, result, parent):
    tracer.counts["cli.report_bytes"] += len(result.encode("utf-8"))


def _count_isotone(tracer, args, kwargs, result, parent):
    tracer.counts["sampled.is_isotone_calls"] += 1
    tracer.functions_in_job.add(id(args[0]))


def _count_precheck(tracer, args, kwargs, result, parent):
    tracer.counts["continuation.subsets_scanned"] += result[1]["subsets_scanned"]


def _count_envelope(tracer, args, kwargs, result, parent):
    tracer.counts["continuation.envelope_calls"] += 1
    tracer.counts["continuation.certificate_parts"] += result[1].part_count()


def _lattice_size(g) -> int:
    return (g.cells + 1) ** g.n


def _count_table(tracer, args, kwargs, result, parent):
    size = _lattice_size(args[0])
    tracer.counts["modulus.lattice_pairs"] += size * (size + 1) // 2


def _count_modulus(tracer, args, kwargs, result, parent):
    tracer.counts["modulus.lattice_pairs"] += _lattice_size(args[0]) ** 2


def _count_difference_bound(tracer, args, kwargs, result, parent):
    g = args[0]
    size = _lattice_size(g)
    ok, witness = result
    if ok:
        tracer.counts["modulus.lattice_pairs"] += size * size
        return

    def rank(p):
        r = 0
        for c in p.coords:
            r = r * (g.cells + 1) + int(c / g.step)
        return r

    tracer.counts["modulus.lattice_pairs"] += rank(witness[0]) * size + rank(witness[1]) + 1


def _count_triangles(tracer, args, kwargs, result, parent):
    n = len(args[0])
    ok, violation = result
    if ok:
        tracer.counts["metric.triangle_checks"] += n ** 3
    elif violation.kind == "triangle":
        i, j, k = violation.indices
        tracer.counts["metric.triangle_checks"] += i * n * n + j * n + k + 1


def _count_combiner(tracer, args, kwargs, result, parent):
    tracer.counts["combiners.evaluations"] += 1


def _count_digits(tracer, args, kwargs, result, parent):
    tracer.counts["cantor.digits_expanded"] += len(result.all_digits())


# (module, attribute, span name, counter); "Class.method" patches the class.
SPANS = (
    ("isoprod.cli", "dispatch", "cli.dispatch", None),
    ("isoprod.cli", "render", "cli.render", _count_report),
    ("isoprod.fileio", "load_sampled_function", "fileio.load_sampled_function", _count_load),
    ("isoprod.fileio", "load_matrix", "fileio.load_matrix", _count_load),
    ("isoprod.fileio", "load_metric_space", "fileio.load_metric_space", _count_load),
    ("isoprod.fileio", "load_grid_function", "fileio.load_grid_function", _count_load),
    ("isoprod.fileio", "load_rational_set", "fileio.load_rational_set", _count_load),
    ("isoprod.fileio", "load_product_spec", "fileio.load_product_spec", _count_load),
    ("isoprod.sampled", "is_isotone", "sampled.is_isotone", _count_isotone),
    ("isoprod.sampled", "is_subadditive", "sampled.is_subadditive", None),
    ("isoprod.continuation", "sup_continuation", "continuation.sup_continuation", None),
    ("isoprod.continuation", "amenable_isotone_continuation",
     "continuation.amenable_isotone_continuation", None),
    ("isoprod.continuation", "amenable_continuation_precheck",
     "continuation.amenable_continuation_precheck", _count_precheck),
    ("isoprod.continuation", "subadditive_envelope", "continuation.subadditive_envelope",
     _count_envelope),
    ("isoprod.modulus", "modulus_table", "modulus.modulus_table", _count_table),
    ("isoprod.modulus", "modulus", "modulus.modulus", _count_modulus),
    ("isoprod.modulus", "difference_bound_holds", "modulus.difference_bound_holds",
     _count_difference_bound),
    ("isoprod.modulus", "nonconstant_wrt", "modulus.nonconstant_wrt", None),
    ("isoprod.metric", "product_metric", "metric.product_metric", None),
    ("isoprod.metric", "verify_metric", "metric.verify_metric", _count_triangles),
    ("isoprod.metric", "extract_product_function", "metric.extract_product_function", None),
    ("isoprod.metric", "is_distance_increasing", "metric.is_distance_increasing", None),
    ("isoprod.metric", "FiniteMetricSpace.__init__", "metric.FiniteMetricSpace", None),
    ("isoprod.combiners", "Combiner.__call__", "combiners.Combiner", _count_combiner),
    ("isoprod.cantor", "to_base3", "cantor.to_base3", _count_digits),
    ("isoprod.cantor", "scaled_cantor_triple_refutation",
     "cantor.scaled_cantor_triple_refutation", None),
    ("isoprod.cantor", "three_point_search", "cantor.three_point_search", None),
)

# Called once per matrix entry: summed in place, not kept as spans.
SUMMED_ONLY = frozenset({"combiners.Combiner"})


class Tracer:
    """Span recorder for the wrapped functions; one job at a time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self.counts: Counter = Counter()
        self.functions_in_job: set[int] = set()
        self._times: defaultdict = defaultdict(float)
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, counter):
        tracer = self
        keep_span = name not in SUMMED_ONLY
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                times = tracer._times
                times["incl:" + name] += duration
                times["self:" + name] += duration - frame[1]
                if parent is None:
                    times["top:" + layer] += duration
                else:
                    parent[1] += duration
                    if not parent[0].startswith(layer + "."):
                        times["top:" + layer] += duration
                if keep_span:
                    tracer.spans.append(
                        (tracer.job, name, start, end, parent[0] if parent else None)
                    )
            if counter is not None:
                counter(tracer, args, kwargs, result, parent[0] if parent else None)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in SPANS wherever an isoprod module binds it."""
        import isoprod.cli  # noqa: F401  (imports every module that SPANS names)

        modules = [m for key, m in list(sys.modules.items())
                   if key == "isoprod" or key.startswith("isoprod.")]
        for module_name, attr, name, counter in SPANS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, original, counter))
                self._patches.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def take_job(self) -> tuple[dict, dict]:
        """Seconds per timing key and counts since the last call, then reset."""
        self.counts["sampled.functions"] += len(self.functions_in_job)
        times, counts = dict(self._times), dict(self.counts)
        self._times.clear()
        self.counts.clear()
        self.functions_in_job.clear()
        return times, counts


def layer_metrics(times: dict, counts: dict, rounds: int, start_s: float) -> dict:
    """Per-layer metrics per round, from scaled seconds and exact counts."""

    def ms(key):
        return times.get(key, 0.0) * 1000 / rounds

    def per_round(key):
        return counts.get(key, 0) / rounds

    functions = counts.get("sampled.functions", 0)
    calls = counts.get("sampled.is_isotone_calls", 0)
    return {
        "cli.start_ms": (start_s * 1000 / rounds, "ref-ms"),
        "cli.dispatch_self_ms": (ms("self:cli.dispatch"), "ref-ms"),
        "cli.render_ms": (ms("incl:cli.render"), "ref-ms"),
        "cli.report_bytes": (per_round("cli.report_bytes"), "bytes"),
        "fileio.load_ms": (ms("top:fileio"), "ref-ms"),
        "fileio.rationals_parsed": (per_round("fileio.rationals_parsed"), "count"),
        "fileio.bytes_read": (per_round("fileio.bytes_read"), "bytes"),
        "sampled.is_isotone_ms": (ms("incl:sampled.is_isotone"), "ref-ms"),
        "sampled.is_isotone_calls": (per_round("sampled.is_isotone_calls"), "count"),
        "sampled.isotone_checks_per_function": (calls / functions if functions else 0.0, "ratio"),
        "sampled.is_subadditive_self_ms": (ms("self:sampled.is_subadditive"), "ref-ms"),
        "continuation.sup_self_ms": (ms("self:continuation.sup_continuation"), "ref-ms"),
        "continuation.amenable_self_ms": (
            ms("self:continuation.amenable_isotone_continuation"), "ref-ms"),
        "continuation.precheck_ms": (
            ms("incl:continuation.amenable_continuation_precheck"), "ref-ms"),
        "continuation.subsets_scanned": (per_round("continuation.subsets_scanned"), "count"),
        "continuation.envelope_ms": (ms("incl:continuation.subadditive_envelope"), "ref-ms"),
        "continuation.envelope_calls": (per_round("continuation.envelope_calls"), "count"),
        "continuation.certificate_parts": (per_round("continuation.certificate_parts"), "count"),
        "modulus.table_ms": (ms("incl:modulus.modulus_table"), "ref-ms"),
        "modulus.modulus_ms": (ms("incl:modulus.modulus"), "ref-ms"),
        "modulus.difference_bound_ms": (ms("incl:modulus.difference_bound_holds"), "ref-ms"),
        "modulus.nonconstant_ms": (ms("incl:modulus.nonconstant_wrt"), "ref-ms"),
        "modulus.lattice_pairs": (per_round("modulus.lattice_pairs"), "count"),
        "metric.product_ms": (ms("incl:metric.product_metric"), "ref-ms"),
        "metric.verify_ms": (ms("incl:metric.verify_metric"), "ref-ms"),
        "metric.extract_ms": (ms("incl:metric.extract_product_function"), "ref-ms"),
        "metric.distance_increasing_ms": (ms("incl:metric.is_distance_increasing"), "ref-ms"),
        "metric.space_init_ms": (ms("incl:metric.FiniteMetricSpace"), "ref-ms"),
        "metric.triangle_checks": (per_round("metric.triangle_checks"), "count"),
        "combiners.evaluations": (per_round("combiners.evaluations"), "count"),
        "combiners.ms": (ms("incl:combiners.Combiner"), "ref-ms"),
        "cantor.to_base3_ms": (ms("incl:cantor.to_base3"), "ref-ms"),
        "cantor.digits_expanded": (per_round("cantor.digits_expanded"), "count"),
        "cantor.refutation_ms": (ms("incl:cantor.scaled_cantor_triple_refutation"), "ref-ms"),
        "cantor.three_point_ms": (ms("incl:cantor.three_point_search"), "ref-ms"),
    }


def merge(into: dict, part: dict, factor: float = 1.0) -> None:
    """Add ``part`` into ``into``, multiplying every value by ``factor``."""
    for key, value in part.items():
        into[key] = into.get(key, 0) + value * factor
