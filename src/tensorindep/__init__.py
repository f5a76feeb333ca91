"""Exact independence analysis of tensor graph powers.

A finite graph with a rational probability measure on its vertices is
analyzed end to end: independence measures of its tensor powers, the
polynomial-time flow test for an independent set that outweighs its
neighborhood, the interval descriptor certifying the 1/2 upper bound
when the test fails, and a certified verdict on the limit of the power
sequence. Everything runs in exact rational arithmetic.
"""

from .classifier import (
    BoundSequence,
    Certificate,
    LimitVerdict,
    VerdictKind,
    classify,
    lower_bound_sequence,
    majority_set_measure,
    majority_witness,
)
from .descriptor import (
    DescriptorReport,
    IntervalHom,
    IntervalPiece,
    build_descriptor,
    check_interval_hom,
    interval_hom_from_json,
    interval_hom_to_json,
    verify_finite_hom,
)
from .errors import SaturationRequired, SizeCapExceeded
from .graphs import (
    WeightedGraph,
    bipartition,
    complete_graph,
    cycle_graph,
    is_independent,
    is_vertex_transitive_uniform,
    iter_bits,
    mask_from,
    measure_of,
    neighborhood,
    path_graph,
    star_graph,
)
from .hallflow import (
    FlowResult,
    build_double_cover,
    cover_flow,
    independent_witness_from_set,
    violating_independent_set,
)
from .mwis import (
    AlphaResult,
    AlphaSequence,
    alpha_bar,
    alpha_sequence,
)
from .tensor import (
    TensorPowerView,
    power_adjacent,
    projection_hom,
    tensor_power,
    tensor_product,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaResult",
    "AlphaSequence",
    "BoundSequence",
    "Certificate",
    "DescriptorReport",
    "FlowResult",
    "IntervalHom",
    "IntervalPiece",
    "LimitVerdict",
    "SaturationRequired",
    "SizeCapExceeded",
    "TensorPowerView",
    "VerdictKind",
    "WeightedGraph",
    "alpha_bar",
    "alpha_sequence",
    "bipartition",
    "build_descriptor",
    "build_double_cover",
    "check_interval_hom",
    "classify",
    "complete_graph",
    "cover_flow",
    "cycle_graph",
    "independent_witness_from_set",
    "interval_hom_from_json",
    "interval_hom_to_json",
    "is_independent",
    "is_vertex_transitive_uniform",
    "iter_bits",
    "lower_bound_sequence",
    "majority_set_measure",
    "majority_witness",
    "mask_from",
    "measure_of",
    "neighborhood",
    "path_graph",
    "power_adjacent",
    "projection_hom",
    "star_graph",
    "tensor_power",
    "tensor_product",
    "verify_finite_hom",
    "violating_independent_set",
]
