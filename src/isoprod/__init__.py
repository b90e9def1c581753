"""Exact rational toolkit for isotone and subadditive functions.

Continuations and envelopes of finitely sampled functions on the
nonnegative rational orthant, metric products over finite metric
spaces, grid moduli of continuity, and base-3 Cantor-set distance
geometry.  Everything except the one Euclidean-style combiner is
computed in exact arbitrary-precision rational arithmetic.
"""

from .cantor import (
    Base3Expansion,
    SymbolicAffine,
    cantor_decompose,
    in_cantor,
    in_scaled_cantor,
    rational_subspace_refutation,
    scaled_cantor_distance_witness,
    scaled_cantor_level_set,
    scaled_cantor_triple_refutation,
    three_point_search,
    to_base3,
    transcendental_embed,
)
from .combiners import Combiner, named_combiner
from .continuation import (
    AxisExtendedFunction,
    AxisRule,
    CoverCertificate,
    amenable_continuation_precheck,
    amenable_isotone_continuation,
    subadditive_envelope,
    subadditive_envelopes,
    sup_continuation,
)
from .metric import (
    FiniteMetricSpace,
    ProductSpec,
    extract_product_function,
    is_distance_increasing,
    max_ultrametric,
    metric_preserving_verdict,
    product_metric,
    unbounded_gauge,
    unbounded_witness,
    verify_metric,
)
from .modulus import (
    GridFunction,
    difference_bound_holds,
    grid_from_combiner,
    is_fixed_point,
    modulus,
    modulus_table,
    nonconstant_wrt,
)
from .points import (
    PointN,
    axis_vector,
    origin,
    point,
    rat,
)
from .sampled import (
    SampledFunction,
    is_amenable,
    is_isotone,
    is_subadditive,
    projection_support,
)

__version__ = "0.1.0"
