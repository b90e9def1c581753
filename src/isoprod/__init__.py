"""Exact rational toolkit for isotone and subadditive functions.

Continuations and envelopes of finitely sampled functions on the
nonnegative rational orthant, metric products over finite metric
spaces, grid moduli of continuity, and base-3 Cantor-set distance
geometry.  Everything except the one Euclidean-style combiner is
computed in exact arbitrary-precision rational arithmetic.

``import isoprod`` loads no submodule: each name in ``__all__`` imports
its defining module on first access (PEP 562).  Where no bytecode cache
is written (``PYTHONDONTWRITEBYTECODE=1``) a process compiles every module
it imports, so ``python -m isoprod`` loads ``verbs``, ``errors``, ``text``
and the verb's handler module and layers only; ``fileio`` only for a verb
that reads a file.  ``isoprod.modulus`` is the submodule; its function of
the same name is ``isoprod.modulus.modulus``.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "cantor": (
        "Base3Expansion", "SymbolicAffine", "cantor_decompose", "in_cantor", "in_scaled_cantor",
        "rational_subspace_refutation", "scaled_cantor_distance_witness", "scaled_cantor_level_set",
        "scaled_cantor_triple_refutation", "three_point_search", "to_base3", "transcendental_embed",
    ),
    "combiners": ("Combiner", "named_combiner"),
    "continuation": (
        "CoverCertificate", "amenable_continuation_precheck", "amenable_isotone_continuation",
        "subadditive_envelope", "subadditive_envelopes", "sup_continuation",
    ),
    "metric": (
        "FiniteMetricSpace", "ProductSpec", "extract_product_function", "is_distance_increasing",
        "max_ultrametric", "metric_preserving_verdict", "product_metric", "unbounded_gauge",
        "unbounded_witness", "verify_metric",
    ),
    "modulus": (
        "GridFunction", "difference_bound_holds", "is_fixed_point", "modulus_table", "nonconstant_wrt",
    ),
    "points": ("PointN", "axis_vector", "origin", "point", "rat"),
    "sampled": ("SampledFunction", "is_amenable", "is_isotone", "is_subadditive", "projection_support"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)
